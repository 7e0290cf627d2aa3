// Observability: the per-simulation bundle of a MetricsRegistry, a
// SpanTracer, the per-tenant SloTracker, the live invariant Monitor, and
// the always-on FlightRecorder. One instance lives on the net::Fabric,
// which every component (brokers, RNICs, TCP stacks, clients) already holds
// a reference to — giving all layers a shared sink without new plumbing.
#pragma once

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace kafkadirect {
namespace obs {

struct Observability {
  explicit Observability(sim::Simulator& sim) : tracer(sim) {}
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  MetricsRegistry metrics;
  SpanTracer tracer;
  SloTracker slo;
  Monitor monitor;
  FlightRecorder flight;
};

}  // namespace obs
}  // namespace kafkadirect
