/**
 * @file
 * Test helper: read one series out of a Prometheus text exposition
 * (FrameServer::metricsText, the body of the wire's MetricsReply).
 */

#ifndef ASDR_TESTS_EXPOSITION_HPP
#define ASDR_TESTS_EXPOSITION_HPP

#include <sstream>
#include <string>

/**
 * The value on the line `series value`, where `series` is the name
 * plus its `{labels}` exactly as rendered; -1 when no line carries it.
 */
inline double
expositionValue(const std::string &text, const std::string &series)
{
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line))
        if (line.size() > series.size() + 1 &&
            line.compare(0, series.size(), series) == 0 &&
            line[series.size()] == ' ')
            return std::stod(line.substr(series.size() + 1));
    return -1.0;
}

#endif // ASDR_TESTS_EXPOSITION_HPP
