/**
 * @file
 * Volume-rendering approximation via color/density decoupling (paper
 * §4.3). Points along a ray are split into groups of n; the color
 * network runs only on group anchors (the first point of each group plus
 * the final point), and the remaining colors are linearly interpolated
 * between anchors -- exploiting the color-wise locality of Fig. 8.
 * Density is always computed for every point.
 */

#ifndef ASDR_CORE_COLOR_APPROXIMATOR_HPP
#define ASDR_CORE_COLOR_APPROXIMATOR_HPP

#include <vector>

#include "util/vec.hpp"

namespace asdr::core {

class ColorApproximator
{
  public:
    /**
     * Indices that get a real color-network execution for a ray of
     * `count` points with group size `group`: 0, n, 2n, ... plus
     * count-1. group <= 1 selects every index (approximation off).
     */
    static void anchorIndices(int count, int group, std::vector<int> &out);

    /**
     * How many indices anchorIndices(count, group) selects, without
     * listing them. The other count - anchorCount points of a ray are
     * interpolated.
     */
    static int anchorCount(int count, int group);

    /**
     * Fill non-anchor entries of `colors` (length `count`) by linear
     * interpolation between consecutive anchors, in place.
     * @return number of interpolated entries
     */
    static int interpolate(Vec3 *colors, const std::vector<int> &anchors,
                           int count);
};

} // namespace asdr::core

#endif // ASDR_CORE_COLOR_APPROXIMATOR_HPP
