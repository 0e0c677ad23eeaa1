/**
 * @file
 * In-memory span recorder for the traced run. The benchmark wraps its
 * own calls into each layer's public functions in spans; the program
 * itself is not instrumented. Spans nest through a per-tracer parent
 * stack, so a Tracer is used from one thread at a time.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Wall clock in microseconds (steady, process-local origin). */
double nowUs();

struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int64_t parent = -1; ///< index of the enclosing span, -1 = root
    uint64_t op = 0;     ///< grid cell or request id
    /**
     * A probe re-runs work the enclosing program call also does, only
     * to time it on its own (e.g. mapping artifacts inside buildPlan).
     * Probes count toward their layer but not toward coverage.
     */
    bool probe = false;
};

/** Per-name totals over a trace. */
struct SpanTotals
{
    uint64_t calls = 0;
    double totalUs = 0.0;
    double selfUs = 0.0; ///< total minus time covered by child spans
};

class Tracer
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    size_t begin(const std::string &name, uint64_t op,
                 bool probe = false);
    void end(size_t index);

    const std::vector<Span> &spans() const { return spans_; }
    void clear();

    /** Totals keyed by span name. */
    std::map<std::string, SpanTotals> totals() const;

    /** Duration of every root, non-probe span: what the trace covers. */
    double coveredUs() const;

    /** Write {"spans":[...]} to `path`; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<size_t> open_;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name, uint64_t op,
               bool probe = false)
        : tracer_(tracer),
          index_(tracer ? tracer->begin(name, op, probe) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    size_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
