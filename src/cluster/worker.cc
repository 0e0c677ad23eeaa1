#include "cluster/worker.hh"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "cluster/wire.hh"
#include "common/net.hh"
#include "serve/request.hh"

namespace gopim::cluster {

serve::Service::StreamStats
pumpFramedConnection(serve::Service &service, int fd,
                     const WorkerOptions &options)
{
    serve::Service::StreamStats stats;

    const std::optional<serve::Envelope> envelope =
        acceptHello(fd, "worker", options.defaultsFp,
                    options.defaultEnvelope, false);
    if (!envelope)
        return stats;

    // --- pipelined request/response pump --------------------------
    // This thread reads frames and submits them (submission order =
    // frame order, which fixes the hit/miss decisions); the writer
    // thread finishes fronts in that same order, so response frames
    // are deterministic per connection for any worker pool size. The
    // window needs no explicit bound: submit() itself blocks on the
    // service's bounded queue.
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<serve::Service::Pending> window;
    bool eof = false;
    bool peerGone = false;

    std::thread writer([&] {
        std::unique_lock<std::mutex> lock(mutex);
        while (true) {
            cv.wait(lock, [&] { return eof || !window.empty(); });
            if (window.empty())
                return; // eof && drained
            serve::Service::Pending pending =
                std::move(window.front());
            window.pop_front();
            lock.unlock();
            const std::string line = service.finish(pending);
            lock.lock();
            if (serve::isErrorLine(line))
                ++stats.errors;
            // A vanished peer stops the writes but not the drain:
            // every submitted request still completes through the
            // service so its cache/metrics state stays coherent.
            if (!peerGone && !net::writeFrame(fd, line))
                peerGone = true;
        }
    });

    while (true) {
        std::string line;
        if (net::readFrame(fd, &line) != net::IoStatus::Ok)
            break;
        ++stats.requests;
        serve::Service::Pending pending =
            service.submit(line, *envelope);
        {
            std::lock_guard<std::mutex> lock(mutex);
            window.push_back(std::move(pending));
            cv.notify_all(); // under the lock: no lost wake-up
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        eof = true;
        cv.notify_all(); // under the lock: no lost wake-up
    }
    writer.join();
    return stats;
}

} // namespace gopim::cluster
