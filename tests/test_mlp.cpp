/**
 * @file
 * Tests for the MLP: forward correctness against a hand-computed
 * network, numerical gradient checks for weights and inputs, Adam
 * convergence on a toy regression, serialization round-trips, and every
 * build of the batched kernel (kernels::available()) against forward()
 * bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "nerf/kernels.hpp"
#include "nerf/mlp.hpp"
#include "util/rng.hpp"

using namespace asdr;
using namespace asdr::nerf;

namespace {

uint32_t
bitsOf(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

} // namespace

TEST(Mlp, ForwardHandComputed)
{
    // 2 -> 2 -> 1 network with weights we set by hand.
    Mlp mlp({2, {2}, 1}, 1);
    // Layer 0: W=[[1,2],[−1,1]], b=[0, 0.5]; Layer 1: W=[[1,1]], b=[-0.25]
    std::vector<float> params = {1,  2,  -1,   1,    // W0 (2x2 row-major)
                                 0,  0.5f,           // b0
                                 1,  1,              // W1
                                 -0.25f};            // b1
    mlp.deserializeParams(params);

    float in[2] = {1.0f, -1.0f};
    float out[1];
    mlp.forward(in, out);
    // h = relu([1*1+2*(-1)+0, -1*1+1*(-1)+0.5]) = relu([-1, -1.5]) = [0,0]
    // out = 0 + 0 - 0.25
    EXPECT_NEAR(out[0], -0.25f, 1e-6f);

    float in2[2] = {1.0f, 1.0f};
    mlp.forward(in2, out);
    // h = relu([3, 0.5]) = [3, 0.5]; out = 3 + 0.5 - 0.25 = 3.25
    EXPECT_NEAR(out[0], 3.25f, 1e-6f);
}

TEST(Mlp, TrainingForwardMatchesInference)
{
    Mlp mlp({8, {16, 16}, 4}, 2);
    Rng rng(3);
    float in[8];
    for (auto &x : in)
        x = rng.nextGaussian();
    float out1[4], out2[4];
    mlp.forward(in, out1);
    MlpWorkspace ws;
    mlp.forward(in, out2, ws);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(out1[i], out2[i]);
}

TEST(Mlp, WeightGradientNumericalCheck)
{
    Mlp mlp({3, {4}, 2}, 5);
    Rng rng(6);
    float in[3] = {rng.nextGaussian(), rng.nextGaussian(),
                   rng.nextGaussian()};

    MlpWorkspace ws;
    float out[2];
    mlp.forward(in, out, ws);
    // Loss = out[0] + 2*out[1].
    float dout[2] = {1.0f, 2.0f};
    mlp.zeroGrad();
    float din[3];
    mlp.backward(ws, dout, din);

    const float eps = 1e-3f;
    // Input gradient check (exact analytic vs numerical).
    for (int i = 0; i < 3; ++i) {
        float backup = in[i];
        in[i] = backup + eps;
        float o_plus[2];
        mlp.forward(in, o_plus);
        in[i] = backup - eps;
        float o_minus[2];
        mlp.forward(in, o_minus);
        in[i] = backup;
        float numerical = ((o_plus[0] + 2 * o_plus[1]) -
                           (o_minus[0] + 2 * o_minus[1])) /
                          (2 * eps);
        EXPECT_NEAR(din[i], numerical, 5e-2f * std::max(1.0f,
                                                        std::fabs(din[i])));
    }
}

TEST(Mlp, AdamFitsToyRegression)
{
    // y = sin(3x) on [-1, 1]; a 1->32->32->1 net should fit well.
    Mlp mlp({1, {32, 32}, 1}, 10);
    Rng rng(11);
    double final_loss = 0.0;
    for (int step = 0; step < 1500; ++step) {
        mlp.zeroGrad();
        double batch_loss = 0.0;
        for (int b = 0; b < 16; ++b) {
            float x = rng.nextRange(-1.0f, 1.0f);
            float target = std::sin(3.0f * x);
            MlpWorkspace ws;
            float out[1];
            mlp.forward(&x, out, ws);
            float err = out[0] - target;
            batch_loss += err * err;
            float dout[1] = {2.0f * err};
            mlp.backward(ws, dout, nullptr);
        }
        mlp.adamStep(3e-3f);
        final_loss = batch_loss / 16.0;
    }
    EXPECT_LT(final_loss, 0.01);
}

TEST(Mlp, SerializeRoundTrip)
{
    Mlp a({5, {7}, 3}, 20);
    Mlp b({5, {7}, 3}, 21); // different init
    b.deserializeParams(a.serializeParams());

    Rng rng(22);
    float in[5];
    for (auto &x : in)
        x = rng.nextGaussian();
    float oa[3], ob[3];
    a.forward(in, oa);
    b.forward(in, ob);
    for (int i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(oa[i], ob[i]);
}

TEST(Mlp, ParamCountAndMacs)
{
    Mlp mlp({32, {64}, 16}, 1);
    EXPECT_EQ(mlp.paramCount(), size_t(32 * 64 + 64 + 64 * 16 + 16));
    EXPECT_DOUBLE_EQ(mlp.forwardMacs(), 32.0 * 64 + 64.0 * 16);
}

TEST(Mlp, PaperFlopRatioDensityVsColor)
{
    // §3 Challenge 2: the density network is ~8% of MLP FLOPs, color
    // ~92%. Check our reference shapes honor that split.
    Mlp density({32, {64}, 16}, 1);
    Mlp color({31, {128, 128, 128}, 3}, 2);
    double d = density.forwardMacs();
    double c = color.forwardMacs();
    double density_share = d / (d + c);
    EXPECT_GT(density_share, 0.05);
    EXPECT_LT(density_share, 0.11);
}

TEST(Mlp, DeterministicInit)
{
    Mlp a({4, {8}, 2}, 33);
    Mlp b({4, {8}, 2}, 33);
    EXPECT_EQ(a.serializeParams(), b.serializeParams());
    Mlp c({4, {8}, 2}, 34);
    EXPECT_NE(a.serializeParams(), c.serializeParams());
}

TEST(Mlp, RejectsBadBlobs)
{
    Mlp mlp({4, {8}, 2}, 1);
    std::vector<float> wrong(3, 0.0f);
    EXPECT_DEATH({ mlp.deserializeParams(wrong); }, "blob size");
}

TEST(MlpKernels, DispatcherPicksAvx2WhereTheCpuHasIt)
{
    const auto variants = kernels::available();
    std::string names;
    for (const kernels::Variant *v : variants)
        names += (names.empty() ? "" : ",") + std::string(v->isa);
    RecordProperty("kernel_variants", names);
    RecordProperty("dispatched", kernels::dispatched().isa);

    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants.front()->isa, "baseline");
#if defined(__x86_64__) || defined(__i386__)
    // A silent fallback to the baseline build fails here.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
        ASSERT_EQ(variants.size(), 2u);
        EXPECT_STREQ(variants[1]->isa, "avx2");
        EXPECT_STREQ(kernels::dispatched().isa, "avx2");
    } else {
        EXPECT_EQ(variants.size(), 1u);
        EXPECT_STREQ(kernels::dispatched().isa, "baseline");
    }
#endif

    // A ScopedVariant redirects only its own thread, and only while it
    // lives.
    EXPECT_EQ(&kernels::active(), &kernels::dispatched());
    {
        kernels::ScopedVariant use(kernels::baseline());
        EXPECT_EQ(&kernels::active(), &kernels::baseline());
    }
    EXPECT_EQ(&kernels::active(), &kernels::dispatched());
}

TEST(MlpKernels, EveryVariantMatchesForwardBitForBit)
{
    // Output counts that are not a multiple of the 4-output pass, odd
    // hidden widths, and point counts around the 8- and 16-lane blocks.
    const MlpConfig shapes[] = {
        {31, {64, 64}, 3}, {32, {48}, 16}, {13, {7, 5}, 5}};
    const int counts[] = {1, 7, 8, 9, 15, 16, 17, 77};
    std::string ran;
    for (const kernels::Variant *v : kernels::available()) {
        ran += (ran.empty() ? "" : ",") + std::string(v->isa);
        kernels::ScopedVariant use(*v);
        uint64_t seed = 40;
        for (const MlpConfig &shape : shapes) {
            Mlp mlp(shape, ++seed);
            const int in_dim = shape.input;
            const int out_dim = shape.output;
            // Strided rows on both sides, as the fields pass them.
            const int in_stride = in_dim + 3;
            const int out_stride = out_dim + 2;
            for (int count : counts) {
                SCOPED_TRACE(std::string(v->isa) + " " +
                             std::to_string(in_dim) + "->" +
                             std::to_string(out_dim) + " count " +
                             std::to_string(count));
                Rng rng(seed * 100 + uint64_t(count));
                std::vector<float> in(size_t(count) * size_t(in_stride));
                for (auto &x : in)
                    x = rng.nextGaussian();
                std::vector<float> out(size_t(count) * size_t(out_stride),
                                       -3.0f);
                std::vector<float> trained(size_t(count) *
                                               size_t(out_stride),
                                           -3.0f);
                mlp.forwardBatch(in.data(), count, in_stride, out.data(),
                                 out_stride);
                MlpBatchWorkspace bws;
                mlp.forwardBatch(in.data(), count, in_stride,
                                 trained.data(), out_stride, bws);

                std::vector<float> ref(static_cast<size_t>(out_dim));
                for (int p = 0; p < count; ++p) {
                    const float *x = in.data() + size_t(p) * in_stride;
                    mlp.forward(x, ref.data());
                    MlpWorkspace ws;
                    std::vector<float> ref_ws(static_cast<size_t>(out_dim));
                    mlp.forward(x, ref_ws.data(), ws);
                    for (int o = 0; o < out_stride; ++o) {
                        const size_t at = size_t(p) * out_stride + size_t(o);
                        if (o >= out_dim) { // the gap stays untouched
                            ASSERT_EQ(out[at], -3.0f);
                            ASSERT_EQ(trained[at], -3.0f);
                            continue;
                        }
                        ASSERT_EQ(bitsOf(out[at]), bitsOf(ref[size_t(o)]))
                            << "point " << p << " output " << o;
                        ASSERT_EQ(bitsOf(trained[at]),
                                  bitsOf(ref[size_t(o)]))
                            << "point " << p << " output " << o;
                    }
                    // The retained activations backward() replays.
                    ASSERT_EQ(bws.acts.size(), ws.acts.size());
                    for (size_t li = 0; li < ws.acts.size(); ++li) {
                        const size_t w = ws.acts[li].size();
                        for (size_t k = 0; k < w; ++k)
                            ASSERT_EQ(bitsOf(bws.acts[li][size_t(p) * w + k]),
                                      bitsOf(ws.acts[li][k]))
                                << "point " << p << " layer " << li
                                << " unit " << k;
                    }
                }
            }
        }
    }
    RecordProperty("kernel_variants", ran);
}
