#include "core/color_approximator.hpp"

#include "util/logging.hpp"

namespace asdr::core {

void
ColorApproximator::anchorIndices(int count, int group, std::vector<int> &out)
{
    out.clear();
    if (count <= 0)
        return;
    if (group <= 1) {
        for (int i = 0; i < count; ++i)
            out.push_back(i);
        return;
    }
    for (int i = 0; i < count; i += group)
        out.push_back(i);
    if (out.back() != count - 1)
        out.push_back(count - 1);
}

int
ColorApproximator::anchorCount(int count, int group)
{
    if (count <= 0)
        return 0;
    if (group <= 1)
        return count;
    // 0, n, 2n, ... up to count - 1, plus count - 1 unless n divides it.
    const int last = count - 1;
    return last / group + 1 + (last % group != 0 ? 1 : 0);
}

int
ColorApproximator::interpolate(Vec3 *colors, const std::vector<int> &anchors,
                               int count)
{
    if (anchors.empty() || count <= 0)
        return 0;
    ASDR_ASSERT(anchors.front() == 0 && anchors.back() == count - 1,
                "anchors must bracket the ray");
    int filled = 0;
    for (size_t a = 0; a + 1 < anchors.size(); ++a) {
        int lo = anchors[a];
        int hi = anchors[a + 1];
        for (int i = lo + 1; i < hi; ++i) {
            float t = float(i - lo) / float(hi - lo);
            colors[i] = lerp(colors[lo], colors[hi], t);
            ++filled;
        }
    }
    return filled;
}

} // namespace asdr::core
