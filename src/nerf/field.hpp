/**
 * @file
 * The radiance-field abstraction the ASDR renderer and simulators are
 * built against. Three implementations exist:
 *
 *  - InstantNgpField: the real hash-grid + MLP network (quality
 *    experiments; it is what the paper accelerates),
 *  - ProceduralField: analytic density/color with the *same* lookup
 *    structure and reference FLOP profile (performance experiments,
 *    where running NN arithmetic on the host would only slow the sweep
 *    without changing any simulated quantity); its geometry features
 *    carry each primitive's falloff term from density to color, as the
 *    NGP density network hands the color network its features,
 *  - TensorfField: the VM-decomposed TensoRF model of §6.8.
 *
 * The architecture side consumes fields through two contracts: the
 * streaming VertexLookup trace (which embedding-table entries each
 * sampled point touches) and the TableSchema + FieldCosts profile
 * (table shapes, MLP layer shapes, per-op FLOPs).
 */

#ifndef ASDR_NERF_FIELD_HPP
#define ASDR_NERF_FIELD_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/vec.hpp"

namespace asdr::nerf {

/** Geometry feature width out of the NGP density network (sigma + 15). */
constexpr int kGeoFeatures = 16;

/** Upper bound on any field's geometry-feature width. */
constexpr int kMaxGeoFeatures = 32;

/** One embedding-table entry access, as seen by the architecture. */
struct VertexLookup
{
    uint16_t level = 0; ///< table id (hash-grid level / TensoRF plane)
    Vec3i vertex;       ///< integer lattice coordinates within the table
    uint32_t index = 0; ///< software table index (dense or hashed)
};

/** Receives the grid lookups implied by each sampled point. */
class LookupSink
{
  public:
    virtual ~LookupSink() = default;
    /** All lookups of one sample point, table-major. */
    virtual void onPointLookups(const VertexLookup *lookups, size_t count) = 0;
};

/** Static description of one embedding table. */
struct TableInfo
{
    uint32_t entries = 0;   ///< addressable entries
    bool dense = false;     ///< injective (un-hashed) indexing
    int verts_per_axis = 0; ///< lattice extent per axis (dense tables)
    int dims = 3;           ///< 3 = grid, 2 = plane, 1 = line
};

/** All embedding tables of a field, for the simulator's data mapping. */
struct TableSchema
{
    uint32_t hash_table_entries = 0; ///< capacity of each hashed table
    int features = 2;                ///< feature floats per entry
    std::vector<TableInfo> tables;
};

/** Shape of one dense layer, for the simulator's CIM mapping. */
struct LayerShape
{
    int in = 0;
    int out = 0;
};

/** Per-point operation costs + network shapes (the workload contract). */
struct FieldCosts
{
    double encode_flops = 0.0;  ///< per sampled point
    double density_flops = 0.0; ///< per density-network execution
    double color_flops = 0.0;   ///< per color-network execution
    std::vector<LayerShape> density_layers;
    std::vector<LayerShape> color_layers;
    int lookups_per_point = 0;
};

/** Density-network result: sigma plus the geometry feature vector that
 *  feeds the color network (paper Fig. 2c). */
struct DensityOutput
{
    float sigma = 0.0f;
    std::array<float, kMaxGeoFeatures> geo{};
};

class GridGeometry;

/** TableSchema for a multiresolution hash grid (one table per level). */
TableSchema schemaFromGeometry(const GridGeometry &geom);

class RadianceField
{
  public:
    virtual ~RadianceField() = default;

    /** Run the density network (or analytic equivalent) at `pos`. */
    virtual DensityOutput density(const Vec3 &pos) const = 0;

    /** Run the color network given the density result and direction.
     *  `den` must be this field's density(pos) (or a densityBatch()
     *  output for `pos`): fields read their color inputs from its
     *  geometry features (ProceduralField reads nothing else), and a
     *  decorator may change `sigma` only. */
    virtual Vec3 color(const Vec3 &pos, const Vec3 &dir,
                       const DensityOutput &den) const = 0;

    /**
     * Batched density: `out[p] = density(pos[p])` for p in [0, count).
     * The base implementation loops; fields with batchable internals
     * (hash-grid encode + MLP) override it to amortize weight and table
     * streaming across the batch. Overrides must stay bit-identical to
     * the per-point path -- the renderer mixes both freely.
     */
    virtual void densityBatch(const Vec3 *pos, int count,
                              DensityOutput *out) const;

    /**
     * Batched color for `count` points sharing one view direction (the
     * samples of a single ray). Same equivalence contract as
     * densityBatch().
     */
    virtual void colorBatch(const Vec3 *pos, const Vec3 &dir,
                            const DensityOutput *den, int count,
                            Vec3 *out) const;

    /** Emit the embedding-table lookups querying `pos` implies. */
    virtual void traceLookups(const Vec3 &pos, LookupSink &sink) const = 0;

    /** Table shapes for the simulator's data mapping. */
    virtual TableSchema tableSchema() const = 0;

    virtual FieldCosts costs() const = 0;

    virtual std::string describe() const = 0;
};

} // namespace asdr::nerf

#endif // ASDR_NERF_FIELD_HPP
