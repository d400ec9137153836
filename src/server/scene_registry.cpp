#include "server/scene_registry.hpp"

#include "nerf/ngp_field.hpp"
#include "nerf/procedural_field.hpp"
#include "scene/scene_library.hpp"

namespace asdr::server {

const SceneEntry *
SceneRegistry::insertLocked(std::unique_ptr<SceneEntry> entry)
{
    for (const auto &e : entries_)
        if (e->name == entry->name)
            return nullptr;
    entry->id = uint32_t(entries_.size());
    entries_.push_back(std::move(entry));
    return entries_.back().get();
}

const SceneEntry *
SceneRegistry::add(const std::string &name,
                   std::unique_ptr<nerf::RadianceField> field,
                   const core::RenderConfig &config,
                   const scene::SceneInfo &info)
{
    auto entry = std::make_unique<SceneEntry>();
    entry->name = name;
    entry->owned_field = std::move(field);
    entry->field = entry->owned_field.get();
    entry->config = config;
    entry->info = info;
    std::lock_guard<std::mutex> lock(m_);
    return insertLocked(std::move(entry));
}

const SceneEntry *
SceneRegistry::addShared(const std::string &name,
                         const nerf::RadianceField &field,
                         const core::RenderConfig &config,
                         const scene::SceneInfo &info)
{
    auto entry = std::make_unique<SceneEntry>();
    entry->name = name;
    entry->field = &field;
    entry->config = config;
    entry->info = info;
    std::lock_guard<std::mutex> lock(m_);
    return insertLocked(std::move(entry));
}

const SceneEntry *
SceneRegistry::addProcedural(const std::string &name,
                             const std::string &library_scene,
                             const nerf::NgpModelConfig &model,
                             const core::RenderConfig &config)
{
    auto entry = std::make_unique<SceneEntry>();
    entry->name = name;
    entry->owned_scene = scene::createScene(library_scene);
    entry->info = entry->owned_scene->info();
    entry->owned_field = std::make_unique<nerf::ProceduralField>(
        *entry->owned_scene, model);
    entry->field = entry->owned_field.get();
    entry->config = config;
    std::lock_guard<std::mutex> lock(m_);
    return insertLocked(std::move(entry));
}

const SceneEntry *
SceneRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(m_);
    for (const auto &e : entries_)
        if (e->name == name)
            return e.get();
    return nullptr;
}

std::vector<std::string>
SceneRegistry::names() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e->name);
    return out;
}

size_t
SceneRegistry::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return entries_.size();
}

} // namespace asdr::server
