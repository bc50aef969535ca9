#include "chaos/schedule.h"

#include <algorithm>
#include <cstdio>

#include "check/digest.h"

namespace ms::chaos {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailStop: return "fail-stop";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kCkptStall: return "ckpt-stall";
    case FaultKind::kPfcStorm: return "pfc-storm";
    case FaultKind::kEcmpRehash: return "ecmp-rehash";
  }
  return "?";
}

void sort_schedule(FaultSchedule& schedule) {
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const InjectedFault& a, const InjectedFault& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.node < b.node;
                   });
}

std::string describe(const InjectedFault& fault) {
  char buf[160];
  switch (fault.kind) {
    case FaultKind::kFailStop:
      std::snprintf(buf, sizeof buf, "t=%s fail-stop node=%d type=%s",
                    format_duration(fault.at).c_str(), fault.node,
                    ft::fault_name(fault.fail_type));
      break;
    case FaultKind::kStraggler:
      std::snprintf(buf, sizeof buf, "t=%s straggler node=%d slow=%.1f%%",
                    format_duration(fault.at).c_str(), fault.node,
                    100.0 * fault.magnitude);
      break;
    case FaultKind::kLinkFlap:
      std::snprintf(buf, sizeof buf, "t=%s link-flap link=%d down=%s",
                    format_duration(fault.at).c_str(), fault.node,
                    format_duration(fault.duration).c_str());
      break;
    case FaultKind::kCkptStall:
      std::snprintf(buf, sizeof buf, "t=%s ckpt-stall stall=%s",
                    format_duration(fault.at).c_str(),
                    format_duration(fault.duration).c_str());
      break;
    case FaultKind::kPfcStorm:
      std::snprintf(buf, sizeof buf, "t=%s pfc-storm intensity=%.2f",
                    format_duration(fault.at).c_str(), fault.magnitude);
      break;
    case FaultKind::kEcmpRehash:
      std::snprintf(buf, sizeof buf, "t=%s ecmp-rehash round=%d",
                    format_duration(fault.at).c_str(), fault.node);
      break;
  }
  return buf;
}

std::uint64_t schedule_digest(const FaultSchedule& schedule) {
  check::Digest digest;
  for (const auto& fault : schedule) {
    digest.fold(fault.at);
    digest.fold(static_cast<std::uint64_t>(fault.kind));
    digest.fold(static_cast<std::int64_t>(fault.node));
    digest.fold(static_cast<std::uint64_t>(fault.fail_type));
    digest.fold(fault.duration);
    digest.fold_bits(fault.magnitude);
  }
  return digest.value();
}

}  // namespace ms::chaos
