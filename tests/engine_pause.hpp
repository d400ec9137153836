/**
 * @file
 * Test helper: hold a FrameEngine's workers so submissions pile up
 * deterministically.
 */

#ifndef ASDR_TESTS_ENGINE_PAUSE_HPP
#define ASDR_TESTS_ENGINE_PAUSE_HPP

#include "engine/frame_engine.hpp"

/** Pause the engine's workers so submissions pile up in the
 *  scheduler/engine deterministically; release() or leaving the scope
 *  resumes them, so a failed assertion cannot hang the test. */
struct EnginePause
{
    explicit EnginePause(asdr::engine::FrameEngine &e) : eng(e)
    {
        eng.pause();
    }
    ~EnginePause() { eng.resume(); }
    void release() { eng.resume(); }

    asdr::engine::FrameEngine &eng;
};

#endif // ASDR_TESTS_ENGINE_PAUSE_HPP
