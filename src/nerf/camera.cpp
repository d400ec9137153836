#include "nerf/camera.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hpp"

namespace asdr::nerf {

Camera::Camera(Vec3 pos, Vec3 look_at, Vec3 up, float fov_deg, int width,
               int height)
    : pos_(pos), width_(width), height_(height)
{
    ASDR_ASSERT(width > 0 && height > 0, "bad camera resolution");
    forward_ = normalize(look_at - pos);
    right_ = normalize(cross(up, forward_));
    up_ = cross(forward_, right_);
    tan_half_fov_ = std::tan(fov_deg * 0.5f * 3.14159265358979f / 180.0f);
    aspect_ = float(width) / float(height);
}

Ray
Camera::ray(float px, float py) const
{
    // NDC in [-1, 1], y up.
    float ndc_x = (2.0f * px / float(width_)) - 1.0f;
    float ndc_y = 1.0f - (2.0f * py / float(height_));
    Vec3 dir = forward_ + right_ * (ndc_x * tan_half_fov_ * aspect_) +
               up_ * (ndc_y * tan_half_fov_);
    return {pos_, normalize(dir)};
}

Camera
Camera::scaledTo(int width, int height) const
{
    ASDR_ASSERT(width > 0 && height > 0, "bad camera resolution");
    Camera c = *this;
    c.width_ = width;
    c.height_ = height;
    c.aspect_ = float(width) / float(height);
    return c;
}

// Four Vec3s, two ints and two floats: 64 bytes with no padding, so
// memcmp sees every field and nothing else.
static_assert(sizeof(Camera) == 4 * sizeof(Vec3) + 4 * 4,
              "Camera::identical compares the object's bytes");

bool
Camera::identical(const Camera &other) const
{
    return std::memcmp(this, &other, sizeof(Camera)) == 0;
}

bool
intersectUnitCube(const Ray &ray, float &t0, float &t1)
{
    t0 = 0.0f;
    t1 = std::numeric_limits<float>::max();
    for (int axis = 0; axis < 3; ++axis) {
        float o = ray.origin[axis];
        float d = ray.dir[axis];
        if (std::fabs(d) < 1e-9f) {
            if (o < 0.0f || o > 1.0f)
                return false;
            continue;
        }
        float ta = (0.0f - o) / d;
        float tb = (1.0f - o) / d;
        if (ta > tb)
            std::swap(ta, tb);
        t0 = std::max(t0, ta);
        t1 = std::min(t1, tb);
        if (t0 > t1)
            return false;
    }
    return t1 > 0.0f;
}

Camera
cameraForScene(const scene::SceneInfo &info, int width, int height)
{
    return Camera(info.cam_pos, info.look_at, Vec3(0.0f, 1.0f, 0.0f),
                  info.fov_deg, width, height);
}

Vec3
orbitPosition(const scene::SceneInfo &info, float angle)
{
    Vec3 pos = info.cam_pos;
    const float dx = pos.x - 0.5f;
    const float dz = pos.z - 0.5f;
    pos.x = 0.5f + dx * std::cos(angle) - dz * std::sin(angle);
    pos.z = 0.5f + dx * std::sin(angle) + dz * std::cos(angle);
    return pos;
}

std::vector<Camera>
orbitCameraPath(const scene::SceneInfo &info, int width, int height,
                int frames, float step_rad)
{
    std::vector<Camera> path;
    path.reserve(size_t(std::max(0, frames)));
    for (int f = 0; f < frames; ++f) {
        path.emplace_back(orbitPosition(info, step_rad * float(f)),
                          info.look_at, Vec3(0.0f, 1.0f, 0.0f),
                          info.fov_deg, width, height);
    }
    return path;
}

void
scaledResolution(const scene::SceneInfo &info, float scale, int &width,
                 int &height)
{
    width = std::max(16, int(std::lround(float(info.full_width) * scale)));
    height = std::max(16, int(std::lround(float(info.full_height) * scale)));
}

} // namespace asdr::nerf
