/**
 * @file
 * Tests for the SH direction encoding, the Eq. (1) volume renderer
 * (closed-form cases, strided subsets, early termination) and the
 * camera / ray geometry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "nerf/camera.hpp"
#include "nerf/sh_encoding.hpp"
#include "nerf/volume_render.hpp"
#include "scene/scene_library.hpp"
#include "util/rng.hpp"

using namespace asdr;
using namespace asdr::nerf;

// ------------------------------------------------------------------ SH

TEST(ShEncoding, ConstantTerm)
{
    float sh[kShCoeffs];
    shEncode(normalize(Vec3(0.3f, -0.5f, 0.8f)), sh);
    EXPECT_NEAR(sh[0], 0.2820948f, 1e-6f);
}

TEST(ShEncoding, Degree1IsLinear)
{
    float sh[kShCoeffs];
    shEncode({0, 0, 1}, sh);
    EXPECT_NEAR(sh[2], 0.4886025f, 1e-6f); // z-aligned band-1 term
    EXPECT_NEAR(sh[1], 0.0f, 1e-6f);
    EXPECT_NEAR(sh[3], 0.0f, 1e-6f);
}

TEST(ShEncoding, OrthogonalityOnSphere)
{
    // Monte-Carlo check: int Y_i Y_j dOmega ~ delta_ij / (4 pi).
    Rng rng(1);
    const int n = 60000;
    double gram[4][4] = {};
    for (int s = 0; s < n; ++s) {
        float sh[kShCoeffs];
        shEncode(rng.nextDirection(), sh);
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                gram[i][j] += double(sh[i]) * sh[j];
    }
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
            double v = gram[i][j] / n * 4.0 * 3.14159265358979;
            EXPECT_NEAR(v, i == j ? 1.0 : 0.0, 0.05)
                << "i=" << i << " j=" << j;
        }
}

TEST(ShEncoding, DistinctDirectionsDiffer)
{
    float a[kShCoeffs], b[kShCoeffs];
    shEncode({1, 0, 0}, a);
    shEncode({0, 1, 0}, b);
    bool differ = false;
    for (int i = 0; i < kShCoeffs; ++i)
        if (std::fabs(a[i] - b[i]) > 1e-4f)
            differ = true;
    EXPECT_TRUE(differ);
}

// ------------------------------------------------------ volume renderer

TEST(Composite, EmptyRayIsBlack)
{
    std::vector<float> sigma(16, 0.0f);
    std::vector<Vec3> color(16, Vec3(1.0f));
    auto result = composite(sigma.data(), color.data(), 16, 0.1f);
    EXPECT_FLOAT_EQ(result.color.x, 0.0f);
    EXPECT_FLOAT_EQ(result.opacity, 0.0f);
}

TEST(Composite, OpaqueFirstPointWins)
{
    std::vector<float> sigma = {1000.0f, 0.0f, 0.0f};
    std::vector<Vec3> color = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    auto result = composite(sigma.data(), color.data(), 3, 0.5f);
    EXPECT_NEAR(result.color.x, 1.0f, 1e-4f);
    EXPECT_NEAR(result.color.y, 0.0f, 1e-4f);
    EXPECT_NEAR(result.opacity, 1.0f, 1e-4f);
}

TEST(Composite, UniformMediumClosedForm)
{
    // Uniform sigma and color: C = c * (1 - exp(-sigma * L)).
    const float sigma_v = 3.0f, dt = 0.01f;
    const int n = 200; // L = 2
    std::vector<float> sigma(n, sigma_v);
    std::vector<Vec3> color(n, Vec3(0.8f, 0.6f, 0.4f));
    auto result = composite(sigma.data(), color.data(), n, dt);
    float expected = 1.0f - std::exp(-sigma_v * dt * n);
    EXPECT_NEAR(result.opacity, expected, 1e-2f);
    EXPECT_NEAR(result.color.x, 0.8f * expected, 1e-2f);
}

TEST(Composite, StridePreservesOpticalDepth)
{
    // A strided subset scales delta so total optical depth matches; for
    // a *uniform* medium the result is nearly identical (this is what
    // makes the Eq. 3 subset comparison meaningful).
    const int n = 128;
    std::vector<float> sigma(n, 5.0f);
    std::vector<Vec3> color(n, Vec3(0.5f, 0.5f, 0.5f));
    auto full = composite(sigma.data(), color.data(), n, 0.01f, 1);
    auto half = composite(sigma.data(), color.data(), n, 0.01f, 2);
    auto eighth = composite(sigma.data(), color.data(), n, 0.01f, 8);
    EXPECT_NEAR(full.color.x, half.color.x, 5e-3f);
    EXPECT_NEAR(full.color.x, eighth.color.x, 2e-2f);
}

TEST(Composite, MultiStrideMatchesSeparateCalls)
{
    // The one-pass multi-stride composite (Phase I's candidate
    // evaluation) must be bit-identical to one composite() call per
    // stride, including the early break on saturated transmittance --
    // on dense sigma, and on sigma that is mostly exactly 0, as a ray's
    // is after the floor and the occupancy grid (alpha skips exp there).
    Rng rng(42);
    const int n = 96;
    std::vector<float> dense(n);
    std::vector<Vec3> color(n);
    for (int i = 0; i < n; ++i) {
        dense[size_t(i)] = rng.nextRange(0.0f, 30.0f);
        color[size_t(i)] = {rng.nextRange(0.0f, 1.0f),
                            rng.nextRange(0.0f, 1.0f),
                            rng.nextRange(0.0f, 1.0f)};
    }
    // Dense wall so some candidates saturate mid-ray.
    for (int i = 40; i < 48; ++i)
        dense[size_t(i)] = 400.0f;
    // Keep about one sample in seven, and half the wall.
    std::vector<float> sparse(n, 0.0f);
    int zeros = 0;
    for (int i = 0; i < n; ++i) {
        if ((i >= 40 && i < 44) || rng.nextFloat() < 0.15f)
            sparse[size_t(i)] = dense[size_t(i)];
        zeros += sparse[size_t(i)] == 0.0f;
    }
    ASSERT_GE(4 * zeros, 3 * n);

    const int strides[] = {1, 16, 8, 4, 2, 3};
    const int count = 6;
    CompositeResult multi[6];
    for (const std::vector<float> *sigma : {&dense, &sparse})
        for (float dt : {0.004f, 0.05f}) {
            compositeMulti(sigma->data(), color.data(), n, dt, strides,
                           count, multi);
            for (int k = 0; k < count; ++k) {
                CompositeResult ref = composite(sigma->data(), color.data(),
                                                n, dt, strides[k]);
                EXPECT_EQ(multi[k].color, ref.color)
                    << "stride " << strides[k];
                EXPECT_EQ(multi[k].opacity, ref.opacity)
                    << "stride " << strides[k];
            }
        }
}

TEST(Composite, FromAlphasMatchesCompositeBitForBit)
{
    // The batched march composites from the alphas its early-termination
    // scan kept; the result must be composite()'s, bit for bit: on
    // buffers of mostly exact zeros, with huge sigma that takes the
    // early break below 1e-5, and with negative-zero colors.
    const auto bits = [](float f) {
        uint32_t u;
        std::memcpy(&u, &f, sizeof u);
        return u;
    };
    Rng rng(27);
    const int n = 128;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<float> sigma(n, 0.0f);
        std::vector<Vec3> color(n);
        for (int i = 0; i < n; ++i) {
            const float u = rng.nextFloat();
            if (u < 0.15f)
                sigma[size_t(i)] = rng.nextRange(0.0f, 30.0f);
            else if (u < 0.17f && trial % 2 == 1)
                sigma[size_t(i)] = 1e6f; // saturates: the early break
            else if (u < 0.2f)
                sigma[size_t(i)] = -0.0f;
            const float c = rng.nextFloat();
            color[size_t(i)] =
                c < 0.3f ? Vec3(-0.0f)
                         : Vec3(rng.nextFloat(), -0.0f, rng.nextFloat());
        }
        const float dt = trial % 3 == 0 ? 0.004f : 0.05f;
        std::vector<float> alpha(n);
        for (int i = 0; i < n; ++i)
            alpha[size_t(i)] = alphaFromSigma(sigma[size_t(i)], dt);
        for (int count : {0, 1, 17, n}) {
            const CompositeResult ref =
                composite(sigma.data(), color.data(), count, dt);
            const CompositeResult got =
                compositeAlphas(alpha.data(), color.data(), count);
            ASSERT_EQ(bits(got.color.x), bits(ref.color.x)) << trial;
            ASSERT_EQ(bits(got.color.y), bits(ref.color.y)) << trial;
            ASSERT_EQ(bits(got.color.z), bits(ref.color.z)) << trial;
            ASSERT_EQ(bits(got.opacity), bits(ref.opacity)) << trial;
        }
    }
}

TEST(Composite, StrideDivergesOnThinFeatures)
{
    // A thin occluder hit by only one of the samples: subsets differ,
    // which is exactly the "difficult pixel" the adaptive sampler must
    // detect (rd_i > 0).
    const int n = 64;
    std::vector<float> sigma(n, 0.0f);
    std::vector<Vec3> color(n, Vec3(0.0f));
    sigma[13] = 500.0f;
    color[13] = Vec3(1.0f, 1.0f, 1.0f);
    auto full = composite(sigma.data(), color.data(), n, 0.02f, 1);
    auto coarse = composite(sigma.data(), color.data(), n, 0.02f, 8);
    EXPECT_GT(maxAbsDiff(full.color, coarse.color), 0.2f);
}

TEST(EarlyTermination, StopsAtOpaqueWall)
{
    const int n = 100;
    std::vector<float> sigma(n, 0.0f);
    for (int i = 20; i < n; ++i)
        sigma[size_t(i)] = 200.0f;
    int cut = earlyTerminationIndex(sigma.data(), n, 0.05f, 1e-3f);
    EXPECT_GT(cut, 20);
    EXPECT_LT(cut, 25); // saturates within a few steps of the wall
}

TEST(EarlyTermination, NeverOnEmptyRay)
{
    std::vector<float> sigma(64, 0.0f);
    EXPECT_EQ(earlyTerminationIndex(sigma.data(), 64, 0.05f, 1e-3f), 64);
}

TEST(EarlyTermination, CutMatchesCompositeSaturation)
{
    Rng rng(2);
    std::vector<float> sigma(128);
    std::vector<Vec3> color(128, Vec3(0.5f));
    for (auto &s : sigma)
        s = rng.nextFloat() * 30.0f;
    int cut = earlyTerminationIndex(sigma.data(), 128, 0.02f, 1e-3f);
    auto full = composite(sigma.data(), color.data(), 128, 0.02f);
    auto trunc = composite(sigma.data(), color.data(), cut, 0.02f);
    // Truncation at the ET point loses < eps of radiance.
    EXPECT_NEAR(full.color.x, trunc.color.x, 2e-3f);
}

TEST(AlphaFromSigma, Limits)
{
    EXPECT_FLOAT_EQ(alphaFromSigma(0.0f, 0.1f), 0.0f);
    EXPECT_NEAR(alphaFromSigma(1000.0f, 1.0f), 1.0f, 1e-6f);
    EXPECT_NEAR(alphaFromSigma(1.0f, 0.5f), 1.0f - std::exp(-0.5f), 1e-6f);
}

TEST(AlphaFromSigma, ZeroSigmaIsPositiveZeroBitForBit)
{
    // The shortcut at sigma 0 returns what 1 - exp(-sigma * dt) gives:
    // +0, for either sign of zero and any finite dt.
    const auto bits = [](float f) {
        uint32_t u;
        std::memcpy(&u, &f, sizeof u);
        return u;
    };
    for (float sigma : {0.0f, -0.0f})
        for (float dt : {0.0f, 1e-3f, 1.0f}) {
            EXPECT_EQ(bits(alphaFromSigma(sigma, dt)), 0u)
                << "sigma " << sigma << " dt " << dt;
            EXPECT_EQ(bits(1.0f - std::exp(-sigma * dt)), 0u)
                << "sigma " << sigma << " dt " << dt;
        }
}

// --------------------------------------------------------------- camera

TEST(Camera, CenterRayPointsForward)
{
    Camera cam({0.5f, 0.5f, -2.0f}, {0.5f, 0.5f, 0.5f}, {0, 1, 0}, 45.0f,
               64, 64);
    Ray ray = cam.ray(32.0f, 32.0f);
    EXPECT_NEAR(ray.dir.z, 1.0f, 1e-3f);
    EXPECT_NEAR(length(ray.dir), 1.0f, 1e-5f);
}

TEST(Camera, CornerRaysDiverge)
{
    Camera cam({0.5f, 0.5f, -2.0f}, {0.5f, 0.5f, 0.5f}, {0, 1, 0}, 60.0f,
               64, 64);
    Ray tl = cam.ray(0.5f, 0.5f);
    Ray br = cam.ray(63.5f, 63.5f);
    EXPECT_LT(tl.dir.x, 0.0f);
    EXPECT_GT(tl.dir.y, 0.0f); // image-space up
    EXPECT_GT(br.dir.x, 0.0f);
    EXPECT_LT(br.dir.y, 0.0f);
}

TEST(IntersectUnitCube, HitAndMiss)
{
    Ray hit{{0.5f, 0.5f, -1.0f}, {0, 0, 1}};
    float t0, t1;
    ASSERT_TRUE(intersectUnitCube(hit, t0, t1));
    EXPECT_NEAR(t0, 1.0f, 1e-5f);
    EXPECT_NEAR(t1, 2.0f, 1e-5f);

    Ray miss{{2.5f, 2.5f, -1.0f}, {0, 0, 1}};
    EXPECT_FALSE(intersectUnitCube(miss, t0, t1));

    Ray behind{{0.5f, 0.5f, 2.0f}, {0, 0, 1}}; // cube is behind origin
    EXPECT_FALSE(intersectUnitCube(behind, t0, t1));
}

TEST(IntersectUnitCube, OriginInside)
{
    Ray ray{{0.5f, 0.5f, 0.5f}, normalize(Vec3(1, 1, 0))};
    float t0, t1;
    ASSERT_TRUE(intersectUnitCube(ray, t0, t1));
    EXPECT_FLOAT_EQ(t0, 0.0f);
    EXPECT_GT(t1, 0.0f);
}

TEST(Camera, SceneCamerasSeeTheCube)
{
    // Every Table-1 scene camera must actually look at the volume.
    for (const auto &name : scene::allSceneNames()) {
        scene::SceneInfo info = scene::sceneInfo(name);
        Camera cam = cameraForScene(info, 32, 32);
        int hits = 0;
        for (int y = 0; y < 32; ++y)
            for (int x = 0; x < 32; ++x) {
                float t0, t1;
                if (intersectUnitCube(
                        cam.ray(float(x) + 0.5f, float(y) + 0.5f), t0, t1))
                    ++hits;
            }
        EXPECT_GT(hits, 32 * 32 / 3) << name;
    }
}

TEST(Camera, ScaledResolutionKeepsAspect)
{
    scene::SceneInfo family = scene::sceneInfo("Family"); // 1920x1080
    int w, h;
    scaledResolution(family, 0.05f, w, h);
    EXPECT_EQ(w, 96);
    EXPECT_EQ(h, 54);
    scaledResolution(family, 0.001f, w, h); // floors at 16
    EXPECT_GE(w, 16);
    EXPECT_GE(h, 16);
}
