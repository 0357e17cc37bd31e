#include "obs/obs.hpp"

#include <ostream>

namespace eadt::obs {

ObsSinks* ObsCollector::slot(std::size_t index, std::string label) {
  std::lock_guard lock(mu_);
  auto it = slots_.find(index);
  if (it == slots_.end()) {
    auto s = std::make_unique<Slot>(trace_cap_);
    s->label = std::move(label);
    s->sinks.metrics = &metrics_;
    s->sinks.trace = &s->trace;
    s->sinks.decisions = &s->decisions;
    it = slots_.emplace(index, std::move(s)).first;
  }
  return &it->second->sinks;
}

void ObsCollector::write_chrome_trace(std::ostream& os) const {
  std::vector<TraceProcess> processes;
  {
    std::lock_guard lock(mu_);
    processes.reserve(slots_.size());
    for (const auto& [index, s] : slots_) processes.push_back({s->label, &s->trace});
  }
  obs::write_chrome_trace(os, processes);
}

void ObsCollector::write_decisions_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  os << "{\n  \"schema\": \"eadt-decisions-v1\",\n  \"decisions\": [";
  bool first = true;
  for (const auto& [index, s] : slots_) {
    for (const auto& d : s->decisions.decisions()) {
      os << (first ? "\n    " : ",\n    ");
      write_decision_json(os, d, index, &s->label);
      first = false;
    }
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
}

void ObsCollector::write_narrative(std::ostream& os) const {
  std::lock_guard lock(mu_);
  for (const auto& [index, s] : slots_) {
    if (s->decisions.empty()) continue;
    os << "== " << s->label << " ==\n";
    s->decisions.write_narrative(os);
  }
}

}  // namespace eadt::obs
