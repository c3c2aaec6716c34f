// Per-frame trace context.
//
// A frame ticket is a process-unique id minted when a frame enters a
// serving queue. It rides in serve::QueuedFrame through the scheduler, and
// a thread-local FrameTicketScope makes it visible to the layers below
// (ResilientPipeline recovery events) without threading an argument through
// every signature. The serving layer emits Chrome-trace flow events keyed
// on the ticket at each hop — queue admission, upload window, kernel
// window, download completion — so one frame's whole journey renders as a
// connected arrow chain across trace tracks, and a recovery instant can
// name exactly which frame it salvaged.
//
// Ticket 0 means "no ticket" everywhere.
#pragma once

#include <cstdint>

namespace mog::telemetry {

/// Next process-unique ticket id (starts at 1; thread-safe).
std::uint64_t mint_frame_ticket();

/// The ticket of the frame currently being processed on this thread,
/// or 0 when none is in scope.
std::uint64_t current_frame_ticket();

/// RAII scope installing `ticket` as this thread's current frame ticket.
class FrameTicketScope {
 public:
  explicit FrameTicketScope(std::uint64_t ticket);
  ~FrameTicketScope();

  FrameTicketScope(const FrameTicketScope&) = delete;
  FrameTicketScope& operator=(const FrameTicketScope&) = delete;

 private:
  std::uint64_t previous_;
};

}  // namespace mog::telemetry
