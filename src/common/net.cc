#include "common/net.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace gopim::net {

namespace {

volatile std::sig_atomic_t gStopRequested = 0;

void
setError(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
}

std::string
errnoString()
{
    return std::strerror(errno);
}

/** Numeric IPv4 only, with "localhost" as the one spelled name. */
bool
resolveIpv4(const std::string &host, in_addr *out)
{
    const std::string numeric =
        (host.empty() || host == "localhost") ? "127.0.0.1" : host;
    return ::inet_pton(AF_INET, numeric.c_str(), out) == 1;
}

/** recv() exactly `size` bytes. Eof only when nothing was read yet. */
IoStatus
readExactly(int fd, char *buf, size_t size, std::string *error)
{
    size_t off = 0;
    while (off < size) {
        const ssize_t n = ::recv(fd, buf + off, size - off, 0);
        if (n == 0) {
            if (off == 0)
                return IoStatus::Eof;
            setError(error, "connection closed mid-frame");
            return IoStatus::Error;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (off == 0 && errno == ECONNRESET)
                return IoStatus::Eof;
            setError(error, std::string("recv(): ") + errnoString());
            return IoStatus::Error;
        }
        off += static_cast<size_t>(n);
    }
    return IoStatus::Ok;
}

} // namespace

Fd &
Fd::operator=(Fd &&other) noexcept
{
    if (this != &other) {
        reset(other.fd_);
        other.fd_ = -1;
    }
    return *this;
}

void
Fd::reset(int fd)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
}

int
Fd::release()
{
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

bool
writeAll(int fd, std::string_view data)
{
    size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a peer that died must surface as EPIPE, not
        // as a process-killing SIGPIPE — the router treats write
        // failures as worker-death events and recovers.
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
writeFrame(int fd, std::string_view payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    const uint32_t size = static_cast<uint32_t>(payload.size());
    char header[4];
    header[0] = static_cast<char>(size & 0xff);
    header[1] = static_cast<char>((size >> 8) & 0xff);
    header[2] = static_cast<char>((size >> 16) & 0xff);
    header[3] = static_cast<char>((size >> 24) & 0xff);
    std::string frame;
    frame.reserve(sizeof(header) + payload.size());
    frame.append(header, sizeof(header));
    frame.append(payload);
    return writeAll(fd, frame);
}

IoStatus
readFrame(int fd, std::string *payload, std::string *error)
{
    char header[4];
    const IoStatus headerStatus =
        readExactly(fd, header, sizeof(header), error);
    if (headerStatus != IoStatus::Ok)
        return headerStatus;
    const uint32_t size =
        static_cast<uint32_t>(static_cast<unsigned char>(header[0])) |
        static_cast<uint32_t>(static_cast<unsigned char>(header[1]))
            << 8 |
        static_cast<uint32_t>(static_cast<unsigned char>(header[2]))
            << 16 |
        static_cast<uint32_t>(static_cast<unsigned char>(header[3]))
            << 24;
    if (size > kMaxFrameBytes) {
        setError(error, "frame length " + std::to_string(size) +
                            " exceeds the " +
                            std::to_string(kMaxFrameBytes) +
                            "-byte limit");
        return IoStatus::Error;
    }
    payload->resize(size);
    if (size == 0)
        return IoStatus::Ok;
    const IoStatus bodyStatus =
        readExactly(fd, payload->data(), size, error);
    if (bodyStatus == IoStatus::Eof) {
        setError(error, "connection closed mid-frame");
        return IoStatus::Error;
    }
    return bodyStatus;
}

int
listenTcp(const std::string &host, uint16_t port, uint16_t *boundPort,
          std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (!resolveIpv4(host, &addr.sin_addr)) {
        setError(error, "unresolvable host '" + host +
                            "' (numeric IPv4 or 'localhost')");
        return -1;
    }
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        setError(error, "socket(): " + errnoString());
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        setError(error, "bind(" + host + ":" + std::to_string(port) +
                            "): " + errnoString());
        return -1;
    }
    if (::listen(fd.get(), 64) != 0) {
        setError(error, "listen(): " + errnoString());
        return -1;
    }
    if (boundPort) {
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd.get(),
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) != 0) {
            setError(error, "getsockname(): " + errnoString());
            return -1;
        }
        *boundPort = ntohs(bound.sin_port);
    }
    return fd.release();
}

int
connectTcp(const std::string &host, uint16_t port, std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (!resolveIpv4(host, &addr.sin_addr)) {
        setError(error, "unresolvable host '" + host +
                            "' (numeric IPv4 or 'localhost')");
        return -1;
    }
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        setError(error, "socket(): " + errnoString());
        return -1;
    }
    if (::connect(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        setError(error, "connect(" + host + ":" +
                            std::to_string(port) +
                            "): " + errnoString());
        return -1;
    }
    return fd.release();
}

int
listenUnix(const std::string &path, std::string *error,
           bool *removedStale)
{
    if (removedStale)
        *removedStale = false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        setError(error, "socket path too long: " + path);
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);

    struct stat st{};
    if (::lstat(path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode)) {
            setError(error, path + " exists and is not a socket; "
                                   "refusing to replace it");
            return -1;
        }
        // Probe: a connectable socket belongs to a live server.
        Fd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
        if (probe.valid() &&
            ::connect(probe.get(),
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            setError(error, "socket " + path +
                                " is in use by a live server "
                                "(stop it or pick another path)");
            return -1;
        }
        // Nobody answered: the previous server died without
        // unlinking. Reclaim the path.
        ::unlink(path.c_str());
        if (removedStale)
            *removedStale = true;
    }

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
        setError(error, "socket(): " + errnoString());
        return -1;
    }
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        setError(error,
                 "bind(" + path + "): " + errnoString());
        return -1;
    }
    if (::listen(fd.get(), 16) != 0) {
        setError(error, "listen(" + path + "): " + errnoString());
        return -1;
    }
    return fd.release();
}

int
acceptWithTimeout(int listenFd, int timeoutMs)
{
    pollfd pfd{listenFd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeoutMs);
    if (rc <= 0 || !(pfd.revents & POLLIN))
        return -1;
    return ::accept(listenFd, nullptr, nullptr);
}

void
acceptUntil(int listenFd, const std::function<void(int)> &handle)
{
    const auto requestStop = [](int) { gStopRequested = 1; };
    std::signal(SIGINT, requestStop);
    std::signal(SIGTERM, requestStop);
    while (!gStopRequested) {
        const Fd conn(acceptWithTimeout(listenFd, 200));
        if (conn.valid())
            handle(conn.get());
    }
}

bool
writePortFile(const std::string &path, uint16_t port, std::string *error)
{
    if (path.empty())
        return true;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!(out << port << '\n')) {
            setError(error, "cannot write port file " + tmp);
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, "cannot rename " + tmp + " to " + path);
        return false;
    }
    return true;
}

} // namespace gopim::net
