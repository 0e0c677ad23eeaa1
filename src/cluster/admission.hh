/**
 * @file
 * Admission control and load shedding for the cluster router. The
 * controller's state IS the observability instruments: per-shard
 * in-flight depth lives in `cluster.shard<i>.inflight` gauges
 * (up/down via obs::Gauge::add), request latency in the
 * `cluster.request.latency_us` histogram, and sheds in the
 * `cluster.shed.count` counter. Decisions read those instruments
 * back, so what the operator sees in --metrics-out is exactly what
 * drove the router's behaviour.
 *
 * Policy: a shard at or above `shedAbove` in-flight requests sheds
 * (structured {"code":"overloaded"} error, immediate); between
 * `maxInflightPerShard` and `shedAbove` the dispatcher blocks
 * (backpressure); a positive `shedLatencyAboveUs` converts blocking
 * into shedding once the observed mean latency crosses it — a
 * saturated *and* slow shard is past helping.
 */

#ifndef GOPIM_CLUSTER_ADMISSION_HH
#define GOPIM_CLUSTER_ADMISSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace gopim::cluster {

/** Router-level admission knobs. */
struct AdmissionConfig
{
    /** Dispatcher blocks at this per-shard in-flight depth. */
    size_t maxInflightPerShard = 64;
    /** Shed (reject) at this depth; 0 = never shed. */
    size_t shedAbove = 0;
    /**
     * With a positive value: once the mean observed request latency
     * exceeds this many microseconds, a saturated shard sheds
     * instead of blocking.
     */
    double shedLatencyAboveUs = 0.0;
};

/** What to do with a request headed for a shard. */
enum class Admit
{
    Accept,
    Block,
    Shed,
};

/** Metric-driven admission decisions; thread-safe (atomic gauges). */
class AdmissionController
{
  public:
    AdmissionController(AdmissionConfig config,
                        obs::MetricsRegistry &registry,
                        size_t shardCount);

    Admit decide(size_t shard) const;

    /** A request was framed onto `shard` (journal grew). */
    void onDispatch(size_t shard);
    /** `shard` answered one request (journal shrank). */
    void onComplete(size_t shard);
    /** A shed was emitted for `shard`. */
    void onShed(size_t shard);
    /** A routed response reached the client; record its latency. */
    void observeLatency(double latencyUs);
    /** A dead shard's journal was re-issued or failed: reset depth. */
    void resetInflight(size_t shard, int64_t depth);

    int64_t inflight(size_t shard) const;

  private:
    AdmissionConfig config_;
    std::vector<obs::Gauge *> inflight_;
    std::vector<obs::Gauge *> inflightMax_;
    obs::Counter *shed_;
    obs::Histogram *latency_;
};

} // namespace gopim::cluster

#endif // GOPIM_CLUSTER_ADMISSION_HH
