/**
 * @file
 * Test doubles shared by the serving and cluster tests: timing
 * engines that cost microseconds (StubEngine) or hold every schedule
 * until released (GateEngine), an input stream that holds at its end
 * (HeldInput), and an output stream another thread may read while it
 * is written (SharedOutput).
 */

#ifndef GOPIM_TESTS_SERVE_DOUBLES_HH
#define GOPIM_TESTS_SERVE_DOUBLES_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <streambuf>
#include <string>
#include <utility>

#include "sim/engine.hh"

namespace gopim {

/**
 * Deterministic constant-time timing backend: the timeline is a pure
 * function of the request, so responses stay byte-identical across
 * worker counts while a simulation costs microseconds instead of
 * running a real engine — which is what lets the stress test push
 * tens of thousands of unique requests through the service.
 */
class StubEngine final : public sim::ScheduleEngine
{
  public:
    std::string name() const override { return "stub"; }

    sim::StageTimeline
    schedule(const sim::ScheduleRequest &request,
             const sim::SimContext &) const override
    {
        sim::StageTimeline timeline;
        double total = 0.0;
        for (double t : request.stageTimesNs)
            total += t;
        timeline.makespanNs =
            total * static_cast<double>(request.totalMicroBatches);
        timeline.busyNs = request.stageTimesNs;
        timeline.blockedNs.assign(request.stageTimesNs.size(), 0.0);
        timeline.idleFraction.assign(request.stageTimesNs.size(), 0.0);
        return timeline;
    }
};

/**
 * A timing backend that blocks inside schedule() until released —
 * pins a worker (and with maxQueue=1, the dispatcher) at a known
 * place so tests can probe the service from outside.
 */
class GateEngine final : public sim::ScheduleEngine
{
  public:
    std::string name() const override { return "gate"; }

    sim::StageTimeline
    schedule(const sim::ScheduleRequest &request,
             const sim::SimContext &ctx) const override
    {
        entered_.fetch_add(1);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return open_; });
        }
        return StubEngine().schedule(request, ctx);
    }

    void
    release() const
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }

    int entered() const { return entered_.load(); }

  private:
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    mutable bool open_ = false;
    mutable std::atomic<int> entered_{0};
};

/**
 * Input that hands out `text`, then holds at its end until release():
 * a client that has sent its lines and waits before it sends more or
 * closes.
 */
class HeldInput final : public std::streambuf
{
  public:
    explicit HeldInput(std::string text) : text_(std::move(text))
    {
        setg(text_.data(), text_.data(), text_.data() + text_.size());
    }

    /** True once the reader has taken every line and asks for more. */
    bool
    waitUntilHeld(std::chrono::seconds limit)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, limit, [this] { return held_; });
    }

    /** Let the reader see end of input. */
    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
        cv_.notify_all();
    }

  protected:
    int_type
    underflow() override
    {
        std::unique_lock<std::mutex> lock(mutex_);
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        return traits_type::eof();
    }

  private:
    std::string text_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool held_ = false;
    bool released_ = false;
};

/** Unbuffered output another thread may read while it is written. */
class SharedOutput final : public std::streambuf
{
  public:
    std::string
    text() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return text_;
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        std::lock_guard<std::mutex> lock(mutex_);
        text_ += traits_type::to_char_type(c);
        return c;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        text_.append(s, static_cast<size_t>(n));
        return n;
    }

  private:
    mutable std::mutex mutex_;
    std::string text_;
};

} // namespace gopim

#endif // GOPIM_TESTS_SERVE_DOUBLES_HH
