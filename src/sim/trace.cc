#include "sim/trace.hh"

#include <algorithm>
#include <fstream>

#include "common/logging.hh"

namespace gopim::sim {

namespace {

/** Minimal JSON string escape (labels are plain ASCII in practice). */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
            continue;
        }
        out += ch;
    }
    return out;
}

} // namespace

ChromeTraceSink::ChromeTraceSink(uint32_t maxEventsPerStage)
    : maxEventsPerStage_(maxEventsPerStage)
{
}

void
ChromeTraceSink::record(const TraceRunInfo &info,
                        const std::vector<pipeline::Stage> &stages,
                        const StageTimeline &timeline)
{
    if (!timeline.hasWindows()) {
        warn("trace sink: timeline for ", info.systemName, " on ",
             info.datasetName,
             " carries no windows; run with recordWindows");
        return;
    }
    Run run;
    run.info = info;
    for (const auto &stage : stages)
        run.stageLabels.push_back(stage.label());
    // Generic stage names when the caller has no descriptors.
    for (size_t i = run.stageLabels.size();
         i < timeline.windows.size(); ++i)
        run.stageLabels.push_back("stage " + std::to_string(i));
    run.windows = timeline.windows;

    std::lock_guard<std::mutex> lock(mutex_);
    runs_.push_back(std::move(run));
}

void
ChromeTraceSink::profileSpan(const std::string &name, double startUs,
                             double durationUs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, startUs, durationUs});
}

size_t
ChromeTraceSink::runCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_.size();
}

size_t
ChromeTraceSink::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
ChromeTraceSink::writeTo(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [";
    bool first = true;
    const auto emit = [&](const std::string &event) {
        os << (first ? "\n" : ",\n") << event;
        first = false;
    };

    for (size_t pid = 0; pid < runs_.size(); ++pid) {
        const Run &run = runs_[pid];
        emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
             ",\"name\":\"process_name\",\"args\":{\"name\":\"" +
             escape(run.info.systemName + " on " +
                    run.info.datasetName + " [" +
                    run.info.engineName + "]") +
             "\"}}");
        for (size_t tid = 0; tid < run.windows.size(); ++tid) {
            emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                 ",\"tid\":" + std::to_string(tid) +
                 ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                 escape(run.stageLabels[tid]) + "\"}}");

            const auto &row = run.windows[tid];
            const size_t cap =
                std::min<size_t>(row.size(), maxEventsPerStage_);
            for (size_t j = 0; j < cap; ++j) {
                // trace_event timestamps are microseconds.
                const double ts = row[j].startNs / 1000.0;
                const double dur =
                    (row[j].endNs - row[j].startNs) / 1000.0;
                emit("{\"ph\":\"X\",\"cat\":\"stage\",\"name\":\"mb " +
                     std::to_string(j) + "\",\"pid\":" +
                     std::to_string(pid) + ",\"tid\":" +
                     std::to_string(tid) + ",\"ts\":" +
                     std::to_string(ts) + ",\"dur\":" +
                     std::to_string(dur) + "}");
            }
        }
    }

    // Host profiling spans as one extra process; simulated runs use
    // simulated-ns timestamps and spans use host microseconds, so the
    // tracks share a viewer but not a clock.
    if (!spans_.empty()) {
        const size_t pid = runs_.size();
        emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
             ",\"name\":\"process_name\",\"args\":{\"name\":"
             "\"host profiling\"}}");
        for (const HostSpan &span : spans_)
            emit("{\"ph\":\"X\",\"cat\":\"profile\",\"name\":\"" +
                 escape(span.name) + "\",\"pid\":" +
                 std::to_string(pid) + ",\"tid\":0,\"ts\":" +
                 std::to_string(span.startUs) + ",\"dur\":" +
                 std::to_string(span.durationUs) + "}");
    }
    os << "\n]\n}\n";
}

void
ChromeTraceSink::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace output file '", path, "'");
    writeTo(out);
}

} // namespace gopim::sim
