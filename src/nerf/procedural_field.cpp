#include "nerf/procedural_field.hpp"

#include <algorithm>

#include "nerf/sh_encoding.hpp"

namespace asdr::nerf {

namespace {

FieldCosts
referenceCosts(const NgpModelConfig &model, const GridGeometry &geom)
{
    FieldCosts costs;
    // Encoding: per level, weight computation + 8 index computations +
    // 8 x F x 2 interpolation FLOPs (same formula as HashGrid).
    const int F = model.grid.features_per_level;
    costs.encode_flops =
        double(model.grid.levels) * (12.0 + 8.0 * 6.0 + 8.0 * F * 2.0);

    auto shapes = [](int input, const std::vector<int> &hidden, int output) {
        std::vector<LayerShape> out;
        std::vector<int> dims;
        dims.push_back(input);
        for (int h : hidden)
            dims.push_back(h);
        dims.push_back(output);
        for (size_t i = 0; i + 1 < dims.size(); ++i)
            out.push_back({dims[i], dims[i + 1]});
        return out;
    };
    costs.density_layers =
        shapes(model.grid.levels * F, model.density_hidden, kGeoFeatures);
    costs.color_layers =
        shapes((kGeoFeatures - 1) + kShCoeffs, model.color_hidden, 3);

    auto macs = [](const std::vector<LayerShape> &layers) {
        double m = 0.0;
        for (const auto &l : layers)
            m += double(l.in) * double(l.out);
        return m;
    };
    costs.density_flops = 2.0 * macs(costs.density_layers);
    costs.color_flops = 2.0 * macs(costs.color_layers) + shEncodeFlops();
    costs.lookups_per_point = geom.levels() * 8;
    return costs;
}

} // namespace

ProceduralField::ProceduralField(const scene::AnalyticScene &scene,
                                 const NgpModelConfig &model)
    : scene_(scene), geom_(model.grid), costs_(referenceCosts(model, geom_))
{
}

DensityOutput
ProceduralField::density(const Vec3 &pos) const
{
    DensityOutput out;
    out.sigma = scene_.density(pos, &out.geo[1], kTerms);
    out.geo[0] = out.sigma;
    return out;
}

Vec3
ProceduralField::color(const Vec3 &pos, const Vec3 &dir,
                       const DensityOutput &den) const
{
    return scene_.sample(pos, dir, &den.geo[1], kTerms).color;
}

void
ProceduralField::densityBatch(const Vec3 *pos, int count,
                              DensityOutput *out) const
{
    constexpr int kBatch = scene::AnalyticScene::kBatch;
    const int nterms =
        std::min(int(scene_.primitives().size()), kTerms);
    float sigma[kBatch];
    float terms[kBatch * kTerms];
    for (int base = 0; base < count; base += kBatch) {
        const int n = std::min(kBatch, count - base);
        scene_.densityBatch(pos + base, n, sigma, terms, nterms);
        for (int p = 0; p < n; ++p) {
            DensityOutput &o = out[base + p];
            o.sigma = sigma[p];
            o.geo[0] = sigma[p];
            std::copy_n(terms + p * nterms, nterms, &o.geo[1]);
            std::fill(o.geo.begin() + 1 + nterms, o.geo.end(), 0.0f);
        }
    }
}

void
ProceduralField::colorBatch(const Vec3 *pos, const Vec3 &dir,
                            const DensityOutput *den, int count,
                            Vec3 *out) const
{
    for (int p = 0; p < count; ++p)
        out[p] = color(pos[p], dir, den[p]);
}

void
ProceduralField::traceLookups(const Vec3 &pos, LookupSink &sink) const
{
    VertexLookup lookups[32 * 8];
    size_t n = 0;
    for (int l = 0; l < geom_.levels(); ++l) {
        Vec3i voxel;
        Vec3 frac;
        geom_.locate(l, pos, voxel, frac);
        Vec3i verts[8];
        GridGeometry::voxelVertices(voxel, verts);
        for (int i = 0; i < 8; ++i) {
            lookups[n].level = uint16_t(l);
            lookups[n].vertex = verts[i];
            lookups[n].index = geom_.index(l, verts[i]);
            ++n;
        }
    }
    sink.onPointLookups(lookups, n);
}

TableSchema
ProceduralField::tableSchema() const
{
    return schemaFromGeometry(geom_);
}

FieldCosts
ProceduralField::costs() const
{
    return costs_;
}

std::string
ProceduralField::describe() const
{
    return "Procedural(" + scene_.info().name + ")";
}

} // namespace asdr::nerf
