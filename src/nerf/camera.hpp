/**
 * @file
 * Pinhole camera and ray generation (paper Fig. 2a): one ray per pixel,
 * marched through the unit-cube scene volume.
 */

#ifndef ASDR_NERF_CAMERA_HPP
#define ASDR_NERF_CAMERA_HPP

#include <vector>

#include "scene/analytic_scene.hpp"
#include "util/vec.hpp"

namespace asdr::nerf {

struct Ray
{
    Vec3 origin;
    Vec3 dir; ///< normalized
};

/** Pinhole camera; +y up, looking from `pos` toward `look_at`. */
class Camera
{
  public:
    Camera(Vec3 pos, Vec3 look_at, Vec3 up, float fov_deg, int width,
           int height);

    int width() const { return width_; }
    int height() const { return height_; }
    const Vec3 &position() const { return pos_; }
    /** Unit view direction (used by the engine's camera-delta checks). */
    const Vec3 &forward() const { return forward_; }

    /** Ray through fractional pixel coordinates (px+0.5, py+0.5 for the
     *  pixel center). */
    Ray ray(float px, float py) const;

    /**
     * The same viewpoint at a different resolution: position, basis and
     * vertical FOV are preserved, the aspect ratio follows the new
     * dimensions. Used by the serving quality ladder to render a
     * degraded frame at reduced resolution without re-deriving the
     * look-at parameters (which the camera does not retain).
     */
    Camera scaledTo(int width, int height) const;

    /** True when every field ray() reads is bitwise equal, so both
     *  cameras cast exactly the same rays (the serving layer's
     *  "same view" test; no float tolerance). */
    bool identical(const Camera &other) const;

  private:
    Vec3 pos_;
    Vec3 forward_;
    Vec3 right_;
    Vec3 up_;
    int width_;
    int height_;
    float tan_half_fov_;
    float aspect_;
};

/**
 * Slab intersection of a ray with the unit cube [0,1]^3.
 * @return true with [t0, t1] when the ray passes through the cube.
 */
bool intersectUnitCube(const Ray &ray, float &t0, float &t1);

/** Camera for a named scene at the given render resolution. */
Camera cameraForScene(const scene::SceneInfo &info, int width, int height);

/**
 * Camera position of the standard orbit at `angle` radians: the
 * scene's default viewpoint rotated about the volume's vertical center
 * axis. The ONE source of orbit geometry -- the wire workload and
 * examples rebuild bit-identical cameras from it, so every orbit
 * consumer must derive positions here rather than re-rotating by hand.
 */
Vec3 orbitPosition(const scene::SceneInfo &info, float angle);

/**
 * A `frames`-step orbit for streaming benchmarks and examples: the
 * scene's default viewpoint rotated about the volume's vertical center
 * axis in `step_rad` increments (element 0 is the default camera).
 */
std::vector<Camera> orbitCameraPath(const scene::SceneInfo &info, int width,
                                    int height, int frames,
                                    float step_rad = 0.15f);

/**
 * Render resolution for a scene at a given scale: the paper-resolution
 * frame (Table 1) scaled down by `scale`, aspect preserved, min 16 px.
 */
void scaledResolution(const scene::SceneInfo &info, float scale, int &width,
                      int &height);

} // namespace asdr::nerf

#endif // ASDR_NERF_CAMERA_HPP
