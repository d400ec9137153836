/**
 * @file
 * Thin RAII wrappers over POSIX TCP sockets -- just enough surface for
 * the render service's poll loop (non-blocking accept/read/write) and
 * the blocking client library. Loopback-first: the default bind/connect
 * address is 127.0.0.1 so tests and benches run hermetically.
 *
 * Conventions: all sends use MSG_NOSIGNAL (a peer hanging up must
 * surface as an error return, never SIGPIPE), EINTR is retried
 * everywhere, and recvSome distinguishes "would block" from "closed"
 * from "error" so the event loop can react per case.
 */

#ifndef ASDR_NET_SOCKET_HPP
#define ASDR_NET_SOCKET_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>

namespace asdr::net {

/** recvSome outcomes beside a positive byte count. */
constexpr ssize_t kRecvClosed = 0;      ///< orderly peer shutdown
constexpr ssize_t kRecvWouldBlock = -1; ///< non-blocking, nothing ready
constexpr ssize_t kRecvError = -2;      ///< connection unusable

/** One connected TCP socket (move-only; closes on destruction). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Socket &operator=(Socket &&o) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }
    void close();

    bool setNonBlocking(bool on);
    /** Disable Nagle: frame results are latency-sensitive. */
    bool setNoDelay(bool on);
    /** Blocking-read timeout (0 = never time out). The client library
     *  sets one so a dead service can't hang a caller forever. */
    bool setRecvTimeout(double seconds);

    /** Blocking send of the whole buffer (retries partial writes and
     *  EINTR). False when the connection died. */
    bool sendAll(const void *data, size_t n);
    /** One send() attempt (for the non-blocking writer): bytes written,
     *  kRecvWouldBlock, or kRecvError. */
    ssize_t sendSome(const void *data, size_t n);
    /** One recv() attempt: bytes read, kRecvClosed, kRecvWouldBlock,
     *  or kRecvError. */
    ssize_t recvSome(void *data, size_t n);

    /** Blocking connect to host:port. Invalid socket + `err` on
     *  failure. Numeric IPv4 hosts only (the service is loopback-
     *  oriented; name resolution is out of scope). */
    static Socket connectTo(const std::string &host, uint16_t port,
                            std::string *err);

  private:
    int fd_ = -1;
};

/** Listening TCP socket (non-blocking accept). */
class TcpListener
{
  public:
    TcpListener() = default;
    ~TcpListener() { close(); }
    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /** Bind + listen on host:port; port 0 picks an ephemeral port,
     *  readable afterwards via port(). */
    bool bind(const std::string &host, uint16_t port, std::string *err);
    void close();

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }
    uint16_t port() const { return port_; }

    /** Non-blocking accept: an invalid Socket when nothing is pending. */
    Socket accept();

  private:
    int fd_ = -1;
    uint16_t port_ = 0;
};

/** A connected pipe pair used to wake poll() from other threads. */
class WakePipe
{
  public:
    WakePipe();
    ~WakePipe();
    WakePipe(const WakePipe &) = delete;
    WakePipe &operator=(const WakePipe &) = delete;

    bool valid() const { return rfd_ >= 0; }
    int readFd() const { return rfd_; }
    /** Async-signal-thin: one non-blocking byte; saturation is fine
     *  (a pending wake is a wake). */
    void wake();
    /** Drain every pending wake byte. */
    void drain();

  private:
    int rfd_ = -1;
    int wfd_ = -1;
};

} // namespace asdr::net

#endif // ASDR_NET_SOCKET_HPP
