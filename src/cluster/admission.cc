#include "cluster/admission.hh"

#include "obs/profile.hh"

namespace gopim::cluster {

AdmissionController::AdmissionController(AdmissionConfig config,
                                         obs::MetricsRegistry &registry,
                                         size_t shardCount)
    : config_(config)
{
    inflight_.reserve(shardCount);
    inflightMax_.reserve(shardCount);
    for (size_t i = 0; i < shardCount; ++i) {
        const std::string prefix =
            "cluster.shard" + std::to_string(i);
        inflight_.push_back(&registry.gauge(prefix + ".inflight"));
        inflightMax_.push_back(
            &registry.gauge(prefix + ".inflight.max"));
    }
    shed_ = &registry.counter("cluster.shed.count");
    latency_ = &registry.histogram(
        "cluster.request.latency_us",
        obs::ProfileSpan::latencyBoundsUs());
}

Admit
AdmissionController::decide(size_t shard) const
{
    const int64_t depth = inflight_[shard]->value();
    if (config_.shedAbove != 0 &&
        depth >= static_cast<int64_t>(config_.shedAbove))
        return Admit::Shed;
    if (depth < static_cast<int64_t>(config_.maxInflightPerShard))
        return Admit::Accept;
    // Saturated. Slow *and* saturated sheds; otherwise backpressure.
    if (config_.shedLatencyAboveUs > 0.0) {
        const uint64_t count = latency_->count();
        if (count >= 8 &&
            latency_->sum() / static_cast<double>(count) >
                config_.shedLatencyAboveUs)
            return Admit::Shed;
    }
    return Admit::Block;
}

void
AdmissionController::onDispatch(size_t shard)
{
    inflight_[shard]->add(1);
    inflightMax_[shard]->recordMax(inflight_[shard]->value());
}

void
AdmissionController::onComplete(size_t shard)
{
    inflight_[shard]->add(-1);
}

void
AdmissionController::onShed(size_t shard)
{
    (void)shard;
    shed_->add();
}

void
AdmissionController::observeLatency(double latencyUs)
{
    latency_->observe(latencyUs);
}

void
AdmissionController::resetInflight(size_t shard, int64_t depth)
{
    inflight_[shard]->set(depth);
}

int64_t
AdmissionController::inflight(size_t shard) const
{
    return inflight_[shard]->value();
}

} // namespace gopim::cluster
