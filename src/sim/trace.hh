/**
 * @file
 * Timeline observability: a TraceSink observer fed every scheduled
 * run's StageTimeline, and a ChromeTraceSink that serializes the
 * collected runs as Chrome trace_event JSON ("Trace Event Format"),
 * loadable in chrome://tracing and Perfetto.
 *
 * Each recorded run becomes one process (pid) in the trace; each
 * pipeline stage becomes one named thread (tid) carrying complete
 * "X" duration events, one per micro-batch service window.
 */

#ifndef GOPIM_SIM_TRACE_HH
#define GOPIM_SIM_TRACE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/profile.hh"
#include "pipeline/stage.hh"
#include "sim/engine.hh"

namespace gopim::sim {

/** Labels identifying one recorded run in a trace. */
struct TraceRunInfo
{
    std::string systemName;
    std::string datasetName;
    std::string engineName;
};

/** Observer of scheduled timelines (needs windows to be recorded). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per scheduled run. Must be thread-safe. */
    virtual void record(const TraceRunInfo &info,
                        const std::vector<pipeline::Stage> &stages,
                        const StageTimeline &timeline) = 0;
};

/**
 * Collects runs and writes them as Chrome trace_event JSON. Also an
 * obs::SpanSink: host-side ProfileSpans land in the same trace under
 * a dedicated "host profiling" process, so simulated pipeline windows
 * and simulator wall-clock cost are inspectable side by side.
 */
class ChromeTraceSink final : public TraceSink, public obs::SpanSink
{
  public:
    /**
     * `maxEventsPerStage` caps the duration events emitted per stage
     * per run (the rest is dropped) so traces of
     * multi-epoch runs stay loadable.
     */
    explicit ChromeTraceSink(uint32_t maxEventsPerStage = 50'000);

    void record(const TraceRunInfo &info,
                const std::vector<pipeline::Stage> &stages,
                const StageTimeline &timeline) override;

    void profileSpan(const std::string &name, double startUs,
                     double durationUs) override;

    /** Runs recorded so far. */
    size_t runCount() const;

    /** Host profiling spans recorded so far. */
    size_t spanCount() const;

    /** Serialize everything collected as one JSON document. */
    void writeTo(std::ostream &os) const;

    /** writeTo() a file; fatal() when the file cannot be opened. */
    void writeFile(const std::string &path) const;

  private:
    struct Run
    {
        TraceRunInfo info;
        std::vector<std::string> stageLabels;
        std::vector<std::vector<pipeline::StageWindow>> windows;
    };

    struct HostSpan
    {
        std::string name;
        double startUs;
        double durationUs;
    };

    uint32_t maxEventsPerStage_;
    mutable std::mutex mutex_;
    std::vector<Run> runs_;
    std::vector<HostSpan> spans_;
};

} // namespace gopim::sim

#endif // GOPIM_SIM_TRACE_HH
