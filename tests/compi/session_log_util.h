// Test helpers that edit a session directory's session.log frame by frame,
// the way a torn write, a damaged disk or a compaction would leave it.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "compi/session.h"

namespace compi::testing {

/// The index in `frames` of the `back`-th newest snapshot frame (0 is the
/// newest); frames.size() when there is no such frame.
inline std::size_t snapshot_index(const std::vector<SessionLogFrame>& frames,
                                  std::size_t back) {
  for (std::size_t i = frames.size(); i-- > 0;) {
    if (frames[i].kind == SessionLogFrame::Kind::kSnapshot && back-- == 0) {
      return i;
    }
  }
  return frames.size();
}

/// The text of the `back`-th newest snapshot of `dir`'s log ("" if none).
inline std::string snapshot_text(const std::filesystem::path& dir,
                                 std::size_t back) {
  const std::vector<SessionLogFrame> frames = read_session_log(dir);
  const std::size_t i = snapshot_index(frames, back);
  return i < frames.size() ? frames[i].body : std::string();
}

/// Rewrites the text of the `back`-th newest snapshot of `dir`'s log
/// through `edit`, re-checksummed so the reader sees the edited text.
/// False when there is no such snapshot or `edit` changed nothing (returns
/// false).
inline bool edit_snapshot(const std::filesystem::path& dir, std::size_t back,
                          const std::function<bool(std::string&)>& edit) {
  std::vector<SessionLogFrame> frames = read_session_log(dir);
  const std::size_t i = snapshot_index(frames, back);
  return i < frames.size() && edit(frames[i].body) &&
         write_session_log(dir, frames);
}

/// Rewrites every rows frame of `dir`'s log through `edit` (which gets the
/// frame's CSV bytes), re-checksummed; `at` offsets are kept.
inline void edit_rows_frames(const std::filesystem::path& dir,
                             const std::function<void(std::string&)>& edit) {
  std::vector<SessionLogFrame> frames = read_session_log(dir);
  for (SessionLogFrame& f : frames) {
    if (f.kind == SessionLogFrame::Kind::kRows) edit(f.body);
  }
  write_session_log(dir, frames);
}

/// Leaves `dir`'s log as a compaction does: its newest two snapshots and
/// the rows frames between them.  Below the older one's commit point the
/// history is iterations.csv's own.
inline void keep_last_two_snapshots(const std::filesystem::path& dir) {
  const std::vector<SessionLogFrame> frames = read_session_log(dir);
  const std::size_t older = snapshot_index(frames, 1);
  if (older >= frames.size()) return;
  write_session_log(dir, {frames.begin() + static_cast<std::ptrdiff_t>(older),
                          frames.begin() + static_cast<std::ptrdiff_t>(
                                               snapshot_index(frames, 0) + 1)});
}

}  // namespace compi::testing
