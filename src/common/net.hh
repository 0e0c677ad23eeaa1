/**
 * @file
 * Socket and framing helpers shared by the serving and cluster
 * layers: an RAII file descriptor, TCP/Unix listeners (the Unix
 * variant reclaims stale socket files instead of failing with an
 * opaque bind error), loopback TCP connect, and a length-prefixed
 * frame codec (4-byte little-endian length + payload) used by the
 * cluster transport.
 *
 * Everything reports failures through out-parameters rather than
 * fatal(): the callers (worker restart, reconnect loops) treat I/O
 * errors as recoverable events, not user errors.
 */

#ifndef GOPIM_COMMON_NET_HH
#define GOPIM_COMMON_NET_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace gopim::net {

/** RAII file descriptor (move-only; close on destruction). */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &operator=(Fd &&other) noexcept;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    /** Close the held fd (if any) and adopt `fd`. */
    void reset(int fd = -1);
    /** Give up ownership without closing. */
    int release();

  private:
    int fd_ = -1;
};

/**
 * Frames above this size are rejected by both codec directions — a
 * corrupt length prefix must not trigger a multi-gigabyte allocation.
 */
inline constexpr size_t kMaxFrameBytes = size_t{1} << 26;

/** Write all of `data` (SIGPIPE-safe); false on any error. */
bool writeAll(int fd, std::string_view data);

/** Outcome of a frame read. */
enum class IoStatus
{
    Ok,   ///< one complete frame delivered
    Eof,  ///< stream ended cleanly between frames
    Error ///< short read mid-frame, oversized frame, or socket error
};

/** Encode and send one frame; false on error or oversized payload. */
bool writeFrame(int fd, std::string_view payload);

/**
 * Read one frame. Eof only when the peer closed between frames; a
 * close mid-frame is an Error (`error` gets a one-line reason).
 */
IoStatus readFrame(int fd, std::string *payload,
                   std::string *error = nullptr);

/**
 * TCP listener bound to `host` (numeric IPv4 or "localhost"); port 0
 * picks an ephemeral port, reported via `boundPort`. Returns the
 * listening fd, or -1 with `error` filled.
 */
int listenTcp(const std::string &host, uint16_t port,
              uint16_t *boundPort, std::string *error);

/** Connect to host:port; returns the fd, or -1 with `error` filled. */
int connectTcp(const std::string &host, uint16_t port,
               std::string *error);

/**
 * Unix-domain listener with stale-socket handling: if `path` already
 * exists as a socket, probe it — a live server yields an error (never
 * steal a running server's path), a dead one is unlinked and the path
 * reclaimed (`removedStale` reports this so callers can log it). A
 * non-socket file at `path` is an error. Returns the listening fd, or
 * -1 with `error` filled.
 */
int listenUnix(const std::string &path, std::string *error,
               bool *removedStale = nullptr);

/**
 * poll()-based accept: returns the connected fd, or -1 on timeout /
 * transient failure.
 */
int acceptWithTimeout(int listenFd, int timeoutMs);

/**
 * The accept loop of every listener: catch SIGINT and SIGTERM, poll
 * `listenFd` in 200 ms ticks and hand each connection to `handle`,
 * one at a time, until either signal arrives. A connection is closed
 * once `handle` returns; `listenFd` is not.
 */
void acceptUntil(int listenFd, const std::function<void(int)> &handle);

/**
 * Report a listener's bound port to `path` ("" = no report) for the
 * process waiting on it: written to `path`.tmp, then renamed into
 * place, so a reader never sees a partial number. False with `error`
 * filled when the file cannot be written.
 */
bool writePortFile(const std::string &path, uint16_t port,
                   std::string *error);

} // namespace gopim::net

#endif // GOPIM_COMMON_NET_HH
