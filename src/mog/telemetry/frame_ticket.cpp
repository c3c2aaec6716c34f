#include "mog/telemetry/frame_ticket.hpp"

#include <atomic>

namespace mog::telemetry {

namespace {
std::atomic<std::uint64_t> g_next_ticket{1};
thread_local std::uint64_t t_current_ticket = 0;
}  // namespace

std::uint64_t mint_frame_ticket() {
  return g_next_ticket.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t current_frame_ticket() { return t_current_ticket; }

FrameTicketScope::FrameTicketScope(std::uint64_t ticket)
    : previous_(t_current_ticket) {
  t_current_ticket = ticket;
}

FrameTicketScope::~FrameTicketScope() { t_current_ticket = previous_; }

}  // namespace mog::telemetry
