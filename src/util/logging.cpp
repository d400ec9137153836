#include "util/logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace asdr {

namespace {
LogLevel g_level = LogLevel::Info;
std::mutex g_log_mutex;

/** Parse ASDR_LOG_LEVEL at process start (mirrors ASDR_NUM_THREADS /
 *  ASDR_FAULTS): silent|warn|info|debug or the numeric 0-3. */
struct EnvInit
{
    EnvInit()
    {
        const char *v = std::getenv("ASDR_LOG_LEVEL");
        if (!v || !*v)
            return;
        if (!std::strcmp(v, "silent") || !std::strcmp(v, "0"))
            g_level = LogLevel::Silent;
        else if (!std::strcmp(v, "warn") || !std::strcmp(v, "1"))
            g_level = LogLevel::Warn;
        else if (!std::strcmp(v, "info") || !std::strcmp(v, "2"))
            g_level = LogLevel::Info;
        else if (!std::strcmp(v, "debug") || !std::strcmp(v, "3"))
            g_level = LogLevel::Debug;
        else
            std::fprintf(stderr,
                         "[warn] ignoring unknown ASDR_LOG_LEVEL '%s'"
                         " (want silent|warn|info|debug or 0-3)\n",
                         v);
    }
};
EnvInit env_init;
} // namespace

void setLogLevel(LogLevel level) { g_level = level; }
LogLevel logLevel() { return g_level; }

namespace detail {

void
logMessage(LogLevel level, const std::string &tag, const std::string &msg)
{
    if (static_cast<int>(level) > static_cast<int>(g_level))
        return;
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fprintf(stderr, "[%s] %s\n", tag.c_str(), msg.c_str());
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "[fatal] %s\n", msg.c_str());
    std::exit(1);
}

void
panicImpl(const std::string &msg)
{
    std::fprintf(stderr, "[panic] %s\n", msg.c_str());
    std::abort();
}

} // namespace detail
} // namespace asdr
