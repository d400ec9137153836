/**
 * @file
 * Radiance field that answers density/color queries straight from an
 * analytic scene while exposing the exact hash-grid lookup structure and
 * the reference (paper-ratio) MLP cost profile. The performance sweeps
 * use this field: the architecture only observes operation counts and
 * addresses, which are identical to the trained field's, while the host
 * avoids NN arithmetic.
 *
 * Like the NGP density network, density() hands color() its geometry
 * features: DensityOutput::geo holds sigma and then each primitive's
 * falloff term t_i = 1 + exp(sdf_i / softness_i), so color() repeats no
 * SDF or exp the density pass computed. Colors and densities equal
 * scene::AnalyticScene's sample() and density() bit for bit.
 */

#ifndef ASDR_NERF_PROCEDURAL_FIELD_HPP
#define ASDR_NERF_PROCEDURAL_FIELD_HPP

#include <memory>

#include "nerf/field.hpp"
#include "nerf/ngp_field.hpp"
#include "scene/analytic_scene.hpp"

namespace asdr::nerf {

class ProceduralField : public RadianceField
{
  public:
    /**
     * @param scene the analytic scene to answer queries from
     * @param model the model whose lookup/FLOP structure to report
     *        (defaults to NgpModelConfig::reference())
     */
    explicit ProceduralField(const scene::AnalyticScene &scene,
                             const NgpModelConfig &model =
                                 NgpModelConfig::reference());

    /** geo[0] = sigma and geo[1 + i] = primitive i's falloff term
     *  (scene::AnalyticScene) for the first kTerms primitives; the
     *  slots of absent primitives stay 0. */
    DensityOutput density(const Vec3 &pos) const override;
    /** The scene's color at `pos`, from the falloff terms in `den`
     *  (which must be density(pos), as RadianceField::color requires);
     *  only primitives past the first kTerms are evaluated again. */
    Vec3 color(const Vec3 &pos, const Vec3 &dir,
               const DensityOutput &den) const override;
    /** The scene's primitive-major batch density over chunks of
     *  AnalyticScene::kBatch points, packed as density() packs it. */
    void densityBatch(const Vec3 *pos, int count,
                      DensityOutput *out) const override;
    void colorBatch(const Vec3 *pos, const Vec3 &dir,
                    const DensityOutput *den, int count,
                    Vec3 *out) const override;
    void traceLookups(const Vec3 &pos, LookupSink &sink) const override;
    TableSchema tableSchema() const override;
    FieldCosts costs() const override;
    std::string describe() const override;

    /** Grid structure (resolutions, dense/hashed, table sizes). */
    const GridGeometry &gridGeometry() const { return geom_; }

  private:
    /** Falloff terms carried in DensityOutput::geo, after sigma. */
    static constexpr int kTerms = kMaxGeoFeatures - 1;

    const scene::AnalyticScene &scene_;
    GridGeometry geom_;
    FieldCosts costs_;
};

} // namespace asdr::nerf

#endif // ASDR_NERF_PROCEDURAL_FIELD_HPP
