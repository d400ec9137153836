#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/fault.hpp"

namespace asdr::net {

namespace {

void
setErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what + ": " + std::strerror(errno);
}

bool
parseAddr(const std::string &host, uint16_t port, sockaddr_in &addr,
          std::string *err)
{
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (err)
            *err = "not a numeric IPv4 address: " + host;
        return false;
    }
    return true;
}

} // namespace

Socket &
Socket::operator=(Socket &&o) noexcept
{
    if (this != &o) {
        close();
        fd_ = o.fd_;
        o.fd_ = -1;
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Socket::setNonBlocking(bool on)
{
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0)
        return false;
    const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    return ::fcntl(fd_, F_SETFL, want) == 0;
}

bool
Socket::setNoDelay(bool on)
{
    const int v = on ? 1 : 0;
    return ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &v, sizeof v) == 0;
}

bool
Socket::setRecvTimeout(double seconds)
{
    timeval tv;
    tv.tv_sec = time_t(seconds);
    tv.tv_usec = suseconds_t((seconds - double(tv.tv_sec)) * 1e6);
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0;
}

bool
Socket::sendAll(const void *data, size_t n)
{
    if (fault::fire(fault::kSocketSend)) {
        close(); // an injected tear leaves the fd unusable, like a RST
        return false;
    }
    const uint8_t *p = static_cast<const uint8_t *>(data);
    while (n > 0) {
        const ssize_t k = ::send(fd_, p, n, MSG_NOSIGNAL);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += k;
        n -= size_t(k);
    }
    return true;
}

ssize_t
Socket::sendSome(const void *data, size_t n)
{
    if (fault::fire(fault::kSocketSend))
        return kRecvError;
    for (;;) {
        const ssize_t k = ::send(fd_, data, n, MSG_NOSIGNAL);
        if (k >= 0)
            return k;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return kRecvWouldBlock;
        return kRecvError;
    }
}

ssize_t
Socket::recvSome(void *data, size_t n)
{
    if (fault::fire(fault::kSocketRecv))
        return kRecvError;
    for (;;) {
        const ssize_t k = ::recv(fd_, data, n, 0);
        if (k > 0)
            return k;
        if (k == 0)
            return kRecvClosed;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return kRecvWouldBlock;
        return kRecvError;
    }
}

Socket
Socket::connectTo(const std::string &host, uint16_t port, std::string *err)
{
    sockaddr_in addr;
    if (!parseAddr(host, port, addr, err))
        return Socket();
    Socket s(::socket(AF_INET, SOCK_STREAM, 0));
    if (!s.valid()) {
        setErr(err, "socket");
        return Socket();
    }
    for (;;) {
        if (::connect(s.fd(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0)
            break;
        if (errno == EINTR)
            continue;
        setErr(err, "connect " + host);
        return Socket();
    }
    s.setNoDelay(true);
    return s;
}

bool
TcpListener::bind(const std::string &host, uint16_t port, std::string *err)
{
    close();
    sockaddr_in addr;
    if (!parseAddr(host, port, addr, err))
        return false;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        setErr(err, "socket");
        return false;
    }
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0) {
        setErr(err, "bind " + host);
        close();
        return false;
    }
    if (::listen(fd_, 64) != 0) {
        setErr(err, "listen");
        close();
        return false;
    }
    sockaddr_in bound;
    socklen_t len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&bound), &len) != 0) {
        setErr(err, "getsockname");
        close();
        return false;
    }
    port_ = ntohs(bound.sin_port);
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    return true;
}

void
TcpListener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    port_ = 0;
}

Socket
TcpListener::accept()
{
    for (;;) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0)
            return Socket(fd);
        if (errno == EINTR)
            continue;
        return Socket();
    }
}

WakePipe::WakePipe()
{
    int fds[2];
    if (::pipe(fds) == 0) {
        rfd_ = fds[0];
        wfd_ = fds[1];
        for (int fd : fds) {
            const int flags = ::fcntl(fd, F_GETFL, 0);
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        }
    }
}

WakePipe::~WakePipe()
{
    if (rfd_ >= 0)
        ::close(rfd_);
    if (wfd_ >= 0)
        ::close(wfd_);
}

void
WakePipe::wake()
{
    if (wfd_ < 0)
        return;
    const uint8_t b = 1;
    // A full pipe already holds a pending wake; EAGAIN is success.
    (void)!::write(wfd_, &b, 1);
}

void
WakePipe::drain()
{
    if (rfd_ < 0)
        return;
    uint8_t buf[256];
    while (::read(rfd_, buf, sizeof buf) > 0) {
    }
}

} // namespace asdr::net
