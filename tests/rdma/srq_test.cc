#include "rdma/srq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "rdma/queue_pair.h"
#include "rdma/rnic.h"
#include "sim/awaitable.h"

namespace kafkadirect {
namespace rdma {
namespace {

// Many-client harness: two clients, one server whose QPs share one SRQ.
class SrqTest : public ::testing::Test {
 protected:
  SrqTest()
      : fabric_(sim_, cost_),
        client_a_node_(fabric_.AddNode("client_a")),
        client_b_node_(fabric_.AddNode("client_b")),
        server_node_(fabric_.AddNode("server")),
        client_a_nic_(sim_, fabric_, client_a_node_),
        client_b_nic_(sim_, fabric_, client_b_node_),
        server_nic_(sim_, fabric_, server_node_) {
    server_cq_ = server_nic_.CreateCq();
    srq_ = server_nic_.CreateSrq(16);
    client_a_cq_ = client_a_nic_.CreateCq();
    client_b_cq_ = client_b_nic_.CreateCq();
    client_a_qp_ = client_a_nic_.CreateQp(client_a_cq_, client_a_cq_);
    client_b_qp_ = client_b_nic_.CreateQp(client_b_cq_, client_b_cq_);
    server_qp_a_ = server_nic_.CreateQp(server_cq_, server_cq_, srq_);
    server_qp_b_ = server_nic_.CreateQp(server_cq_, server_cq_, srq_);
    KD_CHECK_OK(Connect(client_a_qp_, server_qp_a_));
    KD_CHECK_OK(Connect(client_b_qp_, server_qp_b_));
  }

  // Posts `n` one-byte SRQ buffers with wr_ids base..base+n-1.
  void PostSrqBufs(int n, uint64_t base = 0) {
    for (int i = 0; i < n; i++) {
      bufs_.emplace_back(16, 0);
      KD_CHECK_OK(srq_->PostRecv(base + static_cast<uint64_t>(i),
                                 bufs_.back().data(), 16));
    }
  }

  Status SendFrom(const std::shared_ptr<QueuePair>& qp, uint8_t byte) {
    payloads_.emplace_back(4, byte);
    WorkRequest wr;
    wr.opcode = Opcode::kSend;
    wr.local_addr = payloads_.back().data();
    wr.length = 4;
    return qp->PostSend(wr);
  }

  sim::Simulator sim_;
  CostModel cost_;
  net::Fabric fabric_;
  net::NodeId client_a_node_, client_b_node_, server_node_;
  Rnic client_a_nic_, client_b_nic_, server_nic_;
  std::shared_ptr<CompletionQueue> server_cq_, client_a_cq_, client_b_cq_;
  std::shared_ptr<SharedReceiveQueue> srq_;
  std::shared_ptr<QueuePair> client_a_qp_, client_b_qp_;
  std::shared_ptr<QueuePair> server_qp_a_, server_qp_b_;
  std::deque<std::vector<uint8_t>> bufs_;      // stable SRQ buffer storage
  std::deque<std::vector<uint8_t>> payloads_;  // stable send payloads
};

sim::Co<void> Collect(CompletionQueue* cq, std::vector<WorkCompletion>* out,
                      int n) {
  for (int i = 0; i < n; i++) {
    auto wc = co_await cq->Next();
    if (!wc.has_value()) co_return;
    out->push_back(*wc);
  }
}

TEST_F(SrqTest, CrossQpSendsConsumeOneSharedPool) {
  PostSrqBufs(4);
  ASSERT_TRUE(SendFrom(client_a_qp_, 0xA1).ok());
  ASSERT_TRUE(SendFrom(client_b_qp_, 0xB1).ok());

  std::vector<WorkCompletion> wcs;
  sim::Spawn(sim_, Collect(server_cq_.get(), &wcs, 2));
  sim_.Run();

  ASSERT_EQ(wcs.size(), 2u);
  // Both sends landed and consumed shared-pool buffers in post order
  // (wr_ids 0 then 1), regardless of which QP delivered them.
  std::vector<uint64_t> wr_ids = {wcs[0].wr_id, wcs[1].wr_id};
  std::sort(wr_ids.begin(), wr_ids.end());
  EXPECT_EQ(wr_ids[0], 0u);
  EXPECT_EQ(wr_ids[1], 1u);
  // Each recv CQE is attributed to the QP it arrived on.
  std::vector<uint32_t> qps = {wcs[0].qp_num, wcs[1].qp_num};
  EXPECT_TRUE((qps[0] == server_qp_a_->qp_num() &&
               qps[1] == server_qp_b_->qp_num()) ||
              (qps[0] == server_qp_b_->qp_num() &&
               qps[1] == server_qp_a_->qp_num()));
  // Payload landed in the consumed buffer.
  EXPECT_TRUE(bufs_[0][0] == 0xA1 || bufs_[0][0] == 0xB1);
  EXPECT_EQ(srq_->posted(), 4u);
  EXPECT_EQ(srq_->consumed(), 2u);
  EXPECT_EQ(srq_->depth(), 2u);
}

TEST_F(SrqTest, DrainedSrqFailsReceiverNotSender) {
  PostSrqBufs(1);
  ASSERT_TRUE(SendFrom(client_a_qp_, 1).ok());
  ASSERT_TRUE(SendFrom(client_a_qp_, 2).ok());  // no buffer left for this

  std::vector<WorkCompletion> server_wcs, client_wcs;
  sim::Spawn(sim_, Collect(server_cq_.get(), &server_wcs, 2));
  sim::Spawn(sim_, Collect(client_a_cq_.get(), &client_wcs, 2));
  sim_.Run();

  // The receiver's CQ carries the RNR error, attributed to the receiving
  // QP — the defining difference from the plain-RQ RNR path, where only
  // the initiator learns of the drop.
  ASSERT_EQ(server_wcs.size(), 2u);
  EXPECT_TRUE(server_wcs[0].ok());
  EXPECT_EQ(server_wcs[0].wr_id, 0u);
  EXPECT_EQ(server_wcs[1].status, WcStatus::kRnrRetryExceeded);
  EXPECT_EQ(server_wcs[1].qp_num, server_qp_a_->qp_num());
  // The initiator sees its WR flushed by the teardown, not an RNR. (The
  // flush CQE can beat the first send's success completion to the CQ.)
  ASSERT_EQ(client_wcs.size(), 2u);
  int flushed = 0, succeeded = 0;
  for (const auto& wc : client_wcs) {
    if (wc.status == WcStatus::kWrFlushed) flushed++;
    if (wc.ok()) succeeded++;
    EXPECT_NE(wc.status, WcStatus::kRnrRetryExceeded);
  }
  EXPECT_EQ(flushed, 1);
  EXPECT_EQ(succeeded, 1);
  // The drained-SRQ failure tears down the offending QP pair...
  EXPECT_FALSE(client_a_qp_->PostSend(WorkRequest{}).ok());
  // ...but the sibling QP on the same SRQ keeps working.
  PostSrqBufs(1, 10);
  ASSERT_TRUE(SendFrom(client_b_qp_, 3).ok());
  std::vector<WorkCompletion> b_wcs;
  sim::Spawn(sim_, Collect(server_cq_.get(), &b_wcs, 1));
  sim_.Run();
  ASSERT_EQ(b_wcs.size(), 1u);
  EXPECT_TRUE(b_wcs[0].ok());
  EXPECT_EQ(b_wcs[0].wr_id, 10u);
}

TEST_F(SrqTest, QpTeardownDoesNotFlushSharedEntries) {
  PostSrqBufs(3);
  client_a_qp_->Disconnect();
  sim_.Run();
  // Unlike per-QP receive queues (flushed as kWrFlushed CQEs on Fail),
  // SRQ entries survive a member QP's death for the other QPs to use.
  EXPECT_EQ(srq_->depth(), 3u);
  EXPECT_EQ(server_cq_->depth(), 0u);
  ASSERT_TRUE(SendFrom(client_b_qp_, 7).ok());
  std::vector<WorkCompletion> wcs;
  sim::Spawn(sim_, Collect(server_cq_.get(), &wcs, 1));
  sim_.Run();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_TRUE(wcs[0].ok());
  EXPECT_EQ(srq_->depth(), 2u);
}

TEST_F(SrqTest, PostedMinusConsumedEqualsDepth) {
  PostSrqBufs(8);
  RecvRequest r;
  for (int i = 0; i < 3; i++) ASSERT_TRUE(srq_->TryTake(&r));
  EXPECT_EQ(srq_->posted() - srq_->consumed(), srq_->depth());
  EXPECT_EQ(srq_->depth(), 5u);
}

TEST_F(SrqTest, PoolCapacityIsAllOrNothing) {
  PostSrqBufs(14);  // capacity 16: two slots left
  std::vector<uint8_t> buf(16);
  EXPECT_TRUE(srq_->PostRecv(100, buf.data(), 16).ok());
  EXPECT_TRUE(srq_->PostRecv(101, buf.data(), 16).ok());
  EXPECT_EQ(srq_->depth(), 16u);
  // A post into a full pool is rejected and leaves the pool untouched.
  EXPECT_TRUE(srq_->PostRecv(200, buf.data(), 16).IsResourceExhausted());
  EXPECT_EQ(srq_->depth(), 16u);
  EXPECT_EQ(srq_->posted(), 16u);
}

TEST_F(SrqTest, QpOwnPostRecvRejectedWhenAttached) {
  std::vector<uint8_t> buf(16);
  EXPECT_FALSE(server_qp_a_->PostRecv(1, buf.data(), 16).ok());
  EXPECT_EQ(server_qp_a_->srq(), srq_.get());
  EXPECT_EQ(client_a_qp_->srq(), nullptr);
}

}  // namespace
}  // namespace rdma
}  // namespace kafkadirect
