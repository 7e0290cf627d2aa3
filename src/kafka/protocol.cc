#include "kafka/protocol.h"

namespace kafkadirect {
namespace kafka {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "None";
    case ErrorCode::kUnknownTopicOrPartition: return "UnknownTopicOrPartition";
    case ErrorCode::kNotLeader: return "NotLeader";
    case ErrorCode::kCorruptMessage: return "CorruptMessage";
    case ErrorCode::kOffsetOutOfRange: return "OffsetOutOfRange";
    case ErrorCode::kRecordTooLarge: return "RecordTooLarge";
    case ErrorCode::kRdmaAccessDenied: return "RdmaAccessDenied";
    case ErrorCode::kInvalidRequest: return "InvalidRequest";
    case ErrorCode::kTimedOut: return "TimedOut";
    case ErrorCode::kResourceExhausted: return "ResourceExhausted";
    case ErrorCode::kNotController: return "NotController";
    case ErrorCode::kRebalanceInProgress: return "RebalanceInProgress";
    case ErrorCode::kUnknownMember: return "UnknownMember";
    case ErrorCode::kIllegalGeneration: return "IllegalGeneration";
    case ErrorCode::kFencedLeaderEpoch: return "FencedLeaderEpoch";
  }
  return "?";
}

MsgType PeekType(Slice frame) {
  if (frame.size() < 2) return static_cast<MsgType>(0);
  return static_cast<MsgType>(DecodeFixed16(frame.data()));
}

}  // namespace kafka
}  // namespace kafkadirect
