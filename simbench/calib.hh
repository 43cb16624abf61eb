/**
 * @file
 * A fixed reference computation that measures how fast the host runs
 * simulator-like code at the moment. It shares no code with the
 * simulator, so no change to src/ moves it; the benchmark scales its
 * host times by it (see NOTES.md, "Stability").
 */

#pragma once

namespace simbench
{

/**
 * The nominal host's reference time, in process CPU seconds per call:
 * a fixed unit, about what a call took on the host NOTES.md's baseline
 * was recorded on when it was least loaded. Host times are reported
 * scaled to a host on which a call takes this long.
 */
constexpr double kNominalReferenceS = 0.012;

/**
 * Run the reference computation once and return its process CPU
 * seconds. The work is fixed: a binary-heap event loop whose handlers
 * read and update a 64 KiB table at hashed positions, the heap and
 * branch work of a simulator's event loop.
 */
double referenceSeconds();

} // namespace simbench
