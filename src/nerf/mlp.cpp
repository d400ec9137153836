#include "nerf/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "nerf/kernels.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace asdr::nerf {

namespace {
/** Per-layer pointer scratch bound (layers + 1; the deepest net is 5). */
constexpr size_t kMaxDepth = 16;
} // namespace

Mlp::Mlp(const MlpConfig &cfg, uint64_t seed) : cfg_(cfg)
{
    ASDR_ASSERT(cfg.input > 0 && cfg.output > 0, "bad MLP dimensions");
    std::vector<int> dims;
    dims.push_back(cfg.input);
    for (int h : cfg.hidden) {
        ASDR_ASSERT(h > 0, "bad hidden width");
        dims.push_back(h);
    }
    dims.push_back(cfg.output);

    Rng rng(seed, 0x31337);
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        Layer layer;
        layer.in = dims[i];
        layer.out = dims[i + 1];
        layer.w.resize(size_t(layer.in) * size_t(layer.out));
        layer.b.assign(size_t(layer.out), 0.0f);
        // He-normal init, scaled down on the output layer for stability.
        float std_dev = std::sqrt(2.0f / float(layer.in));
        if (i + 2 == dims.size())
            std_dev *= 0.5f;
        for (auto &w : layer.w)
            w = rng.nextGaussian() * std_dev;
        widest_ = std::max(widest_, size_t(layer.out));
        layers_.push_back(std::move(layer));
    }
}

void
Mlp::forward(const float *in, float *out) const
{
    // Two ping-pong buffers sized to the widest layer avoid allocation.
    thread_local std::vector<float> buf_a, buf_b;
    buf_a.resize(widest_);
    buf_b.resize(widest_);

    const float *src = in;
    float *dst = buf_a.data();
    for (size_t li = 0; li < layers_.size(); ++li) {
        const Layer &layer = layers_[li];
        bool last = li + 1 == layers_.size();
        float *target = last ? out : dst;
        for (int o = 0; o < layer.out; ++o) {
            const float *wrow = layer.w.data() + size_t(o) * layer.in;
            float acc = layer.b[size_t(o)];
            for (int i = 0; i < layer.in; ++i)
                acc += wrow[i] * src[i];
            target[o] = last ? acc : std::max(acc, 0.0f);
        }
        if (!last) {
            src = target;
            dst = (dst == buf_a.data()) ? buf_b.data() : buf_a.data();
        }
    }
}

void
Mlp::forwardBatch(const float *in, int count, int in_stride, float *out,
                  int out_stride) const
{
    ASDR_ASSERT(count >= 0 && in_stride >= cfg_.input &&
                    out_stride >= cfg_.output,
                "bad forwardBatch geometry");
    forwardLanes(in, count, in_stride, out, out_stride, nullptr);
}

void
Mlp::forward(const float *in, float *out, MlpWorkspace &ws) const
{
    ws.acts.resize(layers_.size() + 1);
    ws.acts[0].assign(in, in + cfg_.input);
    for (size_t li = 0; li < layers_.size(); ++li) {
        const Layer &layer = layers_[li];
        bool last = li + 1 == layers_.size();
        ws.acts[li + 1].resize(size_t(layer.out));
        const float *src = ws.acts[li].data();
        float *dst = ws.acts[li + 1].data();
        for (int o = 0; o < layer.out; ++o) {
            const float *wrow = layer.w.data() + size_t(o) * layer.in;
            float acc = layer.b[size_t(o)];
            for (int i = 0; i < layer.in; ++i)
                acc += wrow[i] * src[i];
            dst[o] = last ? acc : std::max(acc, 0.0f);
        }
    }
    std::copy(ws.acts.back().begin(), ws.acts.back().end(), out);
}

void
Mlp::forwardBatch(const float *in, int count, int in_stride, float *out,
                  int out_stride, MlpBatchWorkspace &ws) const
{
    ASDR_ASSERT(count >= 0 && in_stride >= cfg_.input &&
                    out_stride >= cfg_.output,
                "bad forwardBatch geometry");
    // The inference kernel, also writing every layer's activations
    // row-major so backward(ws, p, ...) can replay any sample.
    ws.count = count;
    ws.acts.resize(layers_.size() + 1);
    ws.acts[0].resize(size_t(count) * size_t(cfg_.input));
    for (int p = 0; p < count; ++p)
        std::copy(in + size_t(p) * size_t(in_stride),
                  in + size_t(p) * size_t(in_stride) + size_t(cfg_.input),
                  ws.acts[0].data() + size_t(p) * size_t(cfg_.input));
    ASDR_ASSERT(layers_.size() <= kMaxDepth, "MLP too deep");
    float *keep[kMaxDepth];
    for (size_t li = 0; li < layers_.size(); ++li) {
        ws.acts[li + 1].resize(size_t(count) * size_t(layers_[li].out));
        keep[li] = ws.acts[li + 1].data();
    }
    forwardLanes(ws.acts[0].data(), count, cfg_.input,
                 ws.acts.back().data(), cfg_.output, keep);

    const std::vector<float> &last_acts = ws.acts.back();
    for (int p = 0; p < count; ++p)
        std::copy(last_acts.data() + size_t(p) * size_t(cfg_.output),
                  last_acts.data() + size_t(p + 1) * size_t(cfg_.output),
                  out + size_t(p) * size_t(out_stride));
}

void
Mlp::forwardLanes(const float *in, int count, int in_stride, float *out,
                  int out_stride, float *const *keep) const
{
    ASDR_ASSERT(layers_.size() <= kMaxDepth, "MLP too deep");
    kernels::LayerView views[kMaxDepth];
    for (size_t li = 0; li < layers_.size(); ++li)
        views[li] = {layers_[li].w.data(), layers_[li].b.data(),
                     layers_[li].in, layers_[li].out};
    const size_t lane_w = std::max(size_t(cfg_.input), widest_);
    thread_local std::vector<float> scratch;
    scratch.resize(2 * lane_w * size_t(kernels::kMlpLanes));
    kernels::active().mlp_forward(views, int(layers_.size()), in, count,
                                  in_stride, out, out_stride, keep,
                                  scratch.data());
}

void
Mlp::backwardImpl(const float *const *acts, const float *dout, float *din)
{
    for (auto &layer : layers_) {
        if (layer.gw.empty()) {
            layer.gw.assign(layer.w.size(), 0.0f);
            layer.gb.assign(layer.b.size(), 0.0f);
        }
    }

    // Ping-pong delta buffers, reused across calls: backward runs once
    // per sample inside the training loop, so per-call heap traffic
    // would dominate the small per-layer matvecs.
    const size_t buf_w = std::max(size_t(cfg_.input), widest_);
    thread_local std::vector<float> delta_buf, prev_buf;
    delta_buf.resize(buf_w);
    prev_buf.resize(buf_w);
    float *delta = delta_buf.data();
    float *prev = prev_buf.data();
    std::copy(dout, dout + layers_.back().out, delta);

    for (size_t li = layers_.size(); li-- > 0;) {
        Layer &layer = layers_[li];
        const float *input = acts[li];
        const float *output = acts[li + 1];
        bool last = li + 1 == layers_.size();

        // ReLU gate on hidden layers (output layer is linear).
        if (!last) {
            for (int o = 0; o < layer.out; ++o)
                if (output[size_t(o)] <= 0.0f)
                    delta[size_t(o)] = 0.0f;
        }

        for (int o = 0; o < layer.out; ++o) {
            float d = delta[size_t(o)];
            if (d == 0.0f)
                continue;
            float *grow = layer.gw.data() + size_t(o) * layer.in;
            for (int i = 0; i < layer.in; ++i)
                grow[i] += d * input[size_t(i)];
            layer.gb[size_t(o)] += d;
        }

        if (li > 0 || din) {
            std::fill(prev, prev + layer.in, 0.0f);
            for (int o = 0; o < layer.out; ++o) {
                float d = delta[size_t(o)];
                if (d == 0.0f)
                    continue;
                const float *wrow = layer.w.data() + size_t(o) * layer.in;
                for (int i = 0; i < layer.in; ++i)
                    prev[size_t(i)] += d * wrow[i];
            }
            if (li == 0) {
                std::copy(prev, prev + layer.in, din);
                break;
            }
            std::swap(delta, prev);
        }
    }
}

void
Mlp::backward(const MlpWorkspace &ws, const float *dout, float *din)
{
    ASDR_ASSERT(ws.acts.size() == layers_.size() + 1,
                "workspace does not match a forward pass");
    ASDR_ASSERT(ws.acts.size() <= kMaxDepth, "MLP too deep");
    const float *acts[kMaxDepth];
    for (size_t li = 0; li < ws.acts.size(); ++li)
        acts[li] = ws.acts[li].data();
    backwardImpl(acts, dout, din);
}

void
Mlp::backward(const MlpBatchWorkspace &ws, int p, const float *dout,
              float *din)
{
    ASDR_ASSERT(ws.acts.size() == layers_.size() + 1 && p >= 0 &&
                    p < ws.count,
                "workspace does not match a batched forward pass");
    ASDR_ASSERT(ws.acts.size() <= kMaxDepth, "MLP too deep");
    const float *acts[kMaxDepth];
    acts[0] = ws.acts[0].data() + size_t(p) * size_t(cfg_.input);
    for (size_t li = 0; li < layers_.size(); ++li)
        acts[li + 1] = ws.acts[li + 1].data() +
                       size_t(p) * size_t(layers_[li].out);
    backwardImpl(acts, dout, din);
}

void
Mlp::zeroGrad()
{
    for (auto &layer : layers_) {
        std::fill(layer.gw.begin(), layer.gw.end(), 0.0f);
        std::fill(layer.gb.begin(), layer.gb.end(), 0.0f);
    }
}

void
Mlp::adamStep(float lr, float beta1, float beta2, float eps)
{
    ++adam_t_;
    float bc1 = 1.0f - std::pow(beta1, float(adam_t_));
    float bc2 = 1.0f - std::pow(beta2, float(adam_t_));
    for (auto &layer : layers_) {
        if (layer.gw.empty())
            continue;
        if (layer.mw.empty()) {
            layer.mw.assign(layer.w.size(), 0.0f);
            layer.vw.assign(layer.w.size(), 0.0f);
            layer.mb.assign(layer.b.size(), 0.0f);
            layer.vb.assign(layer.b.size(), 0.0f);
        }
        auto update = [&](std::vector<float> &p, std::vector<float> &g,
                          std::vector<float> &m, std::vector<float> &v) {
            for (size_t i = 0; i < p.size(); ++i) {
                m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
                v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
                float mhat = m[i] / bc1;
                float vhat = v[i] / bc2;
                p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
            }
        };
        update(layer.w, layer.gw, layer.mw, layer.vw);
        update(layer.b, layer.gb, layer.mb, layer.vb);
    }
}

size_t
Mlp::paramCount() const
{
    size_t n = 0;
    for (const auto &layer : layers_)
        n += layer.w.size() + layer.b.size();
    return n;
}

double
Mlp::forwardMacs() const
{
    double macs = 0.0;
    for (const auto &layer : layers_)
        macs += double(layer.in) * double(layer.out);
    return macs;
}

std::vector<float>
Mlp::serializeParams() const
{
    std::vector<float> flat;
    flat.reserve(paramCount());
    for (const auto &layer : layers_) {
        flat.insert(flat.end(), layer.w.begin(), layer.w.end());
        flat.insert(flat.end(), layer.b.begin(), layer.b.end());
    }
    return flat;
}

void
Mlp::deserializeParams(const std::vector<float> &flat)
{
    ASDR_ASSERT(flat.size() == paramCount(), "parameter blob size mismatch");
    size_t pos = 0;
    for (auto &layer : layers_) {
        std::copy(flat.begin() + pos, flat.begin() + pos + layer.w.size(),
                  layer.w.begin());
        pos += layer.w.size();
        std::copy(flat.begin() + pos, flat.begin() + pos + layer.b.size(),
                  layer.b.begin());
        pos += layer.b.size();
    }
}

} // namespace asdr::nerf
