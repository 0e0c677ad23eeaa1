/**
 * @file
 * The in-order session pump behind every stream serve::Service and
 * cluster::Router answer, and its two transports: JSONL text
 * (pumpStream) and length-prefixed frames (pumpFrames).
 */

#ifndef GOPIM_SERVE_PUMP_HH
#define GOPIM_SERVE_PUMP_HH

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/net.hh"

namespace gopim::serve {

/**
 * `submit(line)` each line `nextLine` yields on the calling thread
 * (it may block: backpressure bounds the window). One writer thread
 * `finish(pending)`es the window's front in input order and passes
 * the response to `emit`, with `flush` set when the next one is not
 * `ready(pending)`, so no response waits on the next line. Once `emit`
 * returns false (peer gone) the writer stops emitting but still
 * finishes every request. An exception from the reading side closes
 * the window, joins the writer and is rethrown.
 */
template <typename Submit, typename Ready, typename Finish>
void
pumpSession(const std::function<bool(std::string *)> &nextLine,
            Submit submit, Ready ready, Finish finish,
            const std::function<bool(const std::string &, bool flush)>
                &emit)
{
    using Pending = std::invoke_result_t<Submit &, const std::string &>;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> window;
    bool eof = false;

    std::thread writer([&] {
        bool peerGone = false;
        std::unique_lock<std::mutex> lock(mutex);
        while (true) {
            cv.wait(lock, [&] { return eof || !window.empty(); });
            if (window.empty())
                return; // eof and drained
            Pending pending = std::move(window.front());
            window.pop_front();
            lock.unlock();
            const std::string response = finish(pending);
            lock.lock();
            const bool flush = window.empty() || !ready(window.front());
            lock.unlock();
            if (!peerGone)
                peerGone = !emit(response, flush);
            lock.lock();
        }
    });

    std::exception_ptr failure;
    try {
        std::string line;
        while (nextLine(&line)) {
            Pending pending = submit(line);
            std::lock_guard<std::mutex> lock(mutex);
            window.push_back(std::move(pending));
            cv.notify_all(); // under the lock: no lost wake-up
        }
    } catch (...) {
        failure = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        eof = true;
        cv.notify_all();
    }
    writer.join();
    if (failure)
        std::rethrow_exception(failure);
}

/**
 * One request per non-blank line of `in` (whitespace-only lines are
 * skipped), one response line each to `out`. `in` is untied from
 * `out` while the pump runs: only the writer flushes `out`.
 */
template <typename Submit, typename Ready, typename Finish>
void
pumpStream(std::istream &in, std::ostream &out, Submit submit,
           Ready ready, Finish finish)
{
    std::ostream *const tie = in.tie(nullptr);
    pumpSession(
        [&in](std::string *line) {
            while (std::getline(in, *line))
                if (line->find_first_not_of(" \t\r") != std::string::npos)
                    return true;
            return false;
        },
        std::move(submit), std::move(ready), std::move(finish),
        [&out](const std::string &response, bool flush) {
            out << response << '\n';
            if (flush)
                out.flush();
            return static_cast<bool>(out);
        });
    in.tie(tie);
}

/** One response frame per request frame on `fd`, blank or not. */
template <typename Submit, typename Ready, typename Finish>
void
pumpFrames(int fd, Submit submit, Ready ready, Finish finish)
{
    pumpSession(
        [fd](std::string *line) {
            return net::readFrame(fd, line) == net::IoStatus::Ok;
        },
        std::move(submit), std::move(ready), std::move(finish),
        [fd](const std::string &response, bool) {
            return net::writeFrame(fd, response);
        });
}

} // namespace gopim::serve

#endif // GOPIM_SERVE_PUMP_HH
