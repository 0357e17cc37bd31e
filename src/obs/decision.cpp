#include "obs/decision.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace eadt::obs {
namespace {

std::string jnum(double v) {
  if (!std::isfinite(v)) return "0";
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    std::istringstream is(os.str());
    double back = 0.0;
    is >> back;
    if (back == v) return os.str();
  }
  return "0";
}

}  // namespace

std::string_view to_string(DecisionKind kind) noexcept {
  switch (kind) {
    case DecisionKind::kPlanPartition: return "plan-partition";
    case DecisionKind::kPlanChannelWalk: return "plan-channel-walk";
    case DecisionKind::kHteeProbe: return "htee-probe";
    case DecisionKind::kHteeChoose: return "htee-choose";
    case DecisionKind::kSlaeeJump: return "slaee-jump";
    case DecisionKind::kSlaeeStep: return "slaee-step";
    case DecisionKind::kSlaeeRearrange: return "slaee-rearrange";
    case DecisionKind::kSupervisorRetry: return "supervisor-retry";
    case DecisionKind::kSupervisorAbort: return "supervisor-abort";
    case DecisionKind::kSupervisorDegrade: return "supervisor-degrade";
    case DecisionKind::kSupervisorGiveUp: return "supervisor-give-up";
    case DecisionKind::kSchedulerAdmit: return "scheduler-admit";
    case DecisionKind::kSchedulerShed: return "scheduler-shed";
    case DecisionKind::kSchedulerDefer: return "scheduler-defer";
    case DecisionKind::kSchedulerDispatch: return "scheduler-dispatch";
    case DecisionKind::kSchedulerPreempt: return "scheduler-preempt";
    case DecisionKind::kSchedulerDone: return "scheduler-done";
    case DecisionKind::kPlanTune: return "plan-tune";
    case DecisionKind::kPathFailover: return "path-failover";
    case DecisionKind::kHedgeLaunch: return "hedge-launch";
    case DecisionKind::kHedgeWin: return "hedge-win";
  }
  return "unknown";
}

void write_decision_json(std::ostream& os, const Decision& d, std::size_t slot,
                         const std::string* task) {
  os << "{";
  if (task != nullptr) {
    os << "\"slot\": " << slot << ", \"task\": ";
    write_json_string(os, *task);
    os << ", ";
  }
  os << "\"t\": " << jnum(d.at) << ", \"kind\": ";
  write_json_string(os, to_string(d.kind));
  os << ", \"actor\": ";
  write_json_string(os, d.actor);
  os << ", \"subject\": ";
  write_json_string(os, d.subject);
  os << ", \"detail\": ";
  write_json_string(os, d.detail);
  os << ", \"level\": " << d.level << ", \"chosen\": " << d.chosen
     << ", \"measured_mbps\": " << jnum(d.measured_mbps)
     << ", \"target_mbps\": " << jnum(d.target_mbps) << ", \"ratio\": " << jnum(d.ratio)
     << "}";
}

void write_decision_line(std::ostream& os, const Decision& d) {
  char head[64];
  std::snprintf(head, sizeof(head), "t=%9.2fs  %-10s ", d.at, d.actor);
  os << head << d.subject;
  if (!d.detail.empty()) os << " — " << d.detail;
  os << "\n";
}

void DecisionLog::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"eadt-decisions-v1\",\n  \"decisions\": [";
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_decision_json(os, decisions_[i], 0, nullptr);
  }
  os << (decisions_.empty() ? "]" : "\n  ]") << "\n}\n";
}

void DecisionLog::write_narrative(std::ostream& os) const {
  for (const auto& d : decisions_) write_decision_line(os, d);
}

}  // namespace eadt::obs
