/**
 * @file
 * The single-threaded load generator shared by the serve-mixed and
 * router-3shard workloads, exposed for the benchmark's own tests.
 */

#ifndef PERFBENCH_SERVING_HH
#define PERFBENCH_SERVING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/** Timestamps of one offered request (microseconds, nowUs clock). */
struct LoadSample
{
    double dueUs = 0.0;  ///< when the schedule said to send it
    double sentUs = 0.0; ///< when it was actually sent
    double doneUs = 0.0; ///< when its response was observed

    double latencyMs() const { return (doneUs - dueUs) / 1000.0; }
    double lagMs() const { return (sentUs - dueUs) / 1000.0; }
};

/** What the load generator sends to: a service or a router session. */
class LoadTarget
{
  public:
    virtual ~LoadTarget() = default;
    /** Offer request `index`; may block under backpressure. */
    virtual void send(size_t index) = 0;
    /** Append (index, completion time) of newly completed requests. */
    virtual void poll(std::vector<std::pair<size_t, double>> *done) = 0;
    /**
     * Called while every request is sent and some are outstanding, for
     * targets that only release responses when more input arrives.
     */
    virtual void flush() {}
};

/**
 * Open loop: offer request i at phase start + dueUs[i] from the calling
 * thread, collecting completions in between. Latency is charged from
 * the due time, so a send that blocks delays the requests behind it
 * and shows in their latency and in the send lag. With `deadlineUs` >
 * 0 no request is sent after that offset; the result then holds only
 * the requests sent. Returns once every sent request completed.
 */
std::vector<LoadSample> driveLoad(const std::vector<double> &dueUs,
                                  double deadlineUs, LoadTarget &target);

/**
 * Backlog: offer up to `count` requests as fast as `target` accepts
 * them, each due when it is sent, so its latency counts from its own
 * send. The deadline works as for driveLoad.
 */
std::vector<LoadSample> driveBacklog(size_t count, double deadlineUs,
                                     LoadTarget &target);

} // namespace perfbench

#endif // PERFBENCH_SERVING_HH
