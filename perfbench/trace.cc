#include "trace.hh"

#include <chrono>
#include <fstream>

#include "common/json.hh"

namespace perfbench {

double
nowUs()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

size_t
Tracer::begin(const std::string &name, uint64_t op, bool probe)
{
    Span span;
    span.name = name;
    span.op = op;
    span.probe = probe;
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    // Stamp last so the bookkeeping above is not charged to the span.
    spans_.back().startUs = nowUs();
    return spans_.size() - 1;
}

void
Tracer::end(size_t index)
{
    spans_[index].endUs = nowUs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
Tracer::clear()
{
    spans_.clear();
    open_.clear();
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::vector<double> childUs(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            childUs[static_cast<size_t>(span.parent)] +=
                span.endUs - span.startUs;
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const double dur = spans_[i].endUs - spans_[i].startUs;
        SpanTotals &t = out[spans_[i].name];
        ++t.calls;
        t.totalUs += dur;
        t.selfUs += dur - childUs[i];
    }
    return out;
}

double
Tracer::coveredUs() const
{
    double covered = 0.0;
    for (const Span &span : spans_)
        if (span.parent < 0 && !span.probe)
            covered += span.endUs - span.startUs;
    return covered;
}

bool
Tracer::write(const std::string &path) const
{
    gopim::json::Value list = gopim::json::Value::array();
    for (const Span &span : spans_) {
        gopim::json::Value v = gopim::json::Value::object();
        v.set("name", span.name);
        v.set("start_us", span.startUs);
        v.set("end_us", span.endUs);
        v.set("parent", static_cast<double>(span.parent));
        v.set("op", static_cast<double>(span.op));
        if (span.probe)
            v.set("probe", true);
        list.push(std::move(v));
    }
    gopim::json::Value doc = gopim::json::Value::object();
    doc.set("spans", std::move(list));
    std::ofstream out(path);
    out << doc.dump() << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
