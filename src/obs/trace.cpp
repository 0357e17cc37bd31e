#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

#include "util/json.hpp"

namespace eadt::obs {
namespace {

void write_event_prefix(std::ostream& os, bool& first, char phase, int pid, int tid,
                        Seconds t) {
  os << (first ? "\n" : ",\n") << "    {\"ph\": \"" << phase << "\", \"pid\": " << pid
     << ", \"tid\": " << tid << ", \"ts\": " << json_number(t * 1e6);
  first = false;
}

void write_args(std::ostream& os, const std::array<TraceArg, 3>& args) {
  bool any = false;
  for (const auto& a : args) {
    if (a.key == nullptr) continue;
    os << (any ? ", " : ", \"args\": {");
    write_json_string(os, a.key);
    os << ": " << json_number(a.value);
    any = true;
  }
  if (any) os << "}";
}

void write_metadata(std::ostream& os, bool& first, const char* which, int pid, int tid,
                    std::string_view name) {
  os << (first ? "\n" : ",\n") << "    {\"ph\": \"M\", \"pid\": " << pid
     << ", \"tid\": " << tid << ", \"name\": \"" << which << "\", \"args\": {\"name\": ";
  write_json_string(os, name);
  os << "}}";
  first = false;
}

void write_one_event(std::ostream& os, bool& first, int pid, const TraceEvent& e) {
  write_event_prefix(os, first, static_cast<char>(e.phase), pid, e.tid, e.t);
  if (e.name != nullptr) {
    os << ", \"name\": ";
    write_json_string(os, e.name);
  }
  if (e.cat != nullptr) {
    os << ", \"cat\": ";
    write_json_string(os, e.cat);
  }
  if (e.phase == TraceEvent::Phase::kInstant) os << ", \"s\": \"t\"";
  write_args(os, e.args);
  os << "}";
}

void write_truncation_marker(std::ostream& os, bool& first, int pid, Seconds last_t,
                             std::size_t dropped) {
  write_event_prefix(os, first, 'i', pid, 0, last_t);
  os << ", \"name\": \"trace-truncated\", \"cat\": \"obs\", \"s\": \"p\", "
        "\"args\": {\"dropped\": "
     << dropped << "}}";
}

}  // namespace

TraceBuffer::TraceBuffer(std::size_t max_events) : max_events_(max_events) {
  events_.reserve(std::min<std::size_t>(max_events_, 4096));
}

const char* TraceBuffer::intern(std::string name) {
  return interned_.insert(std::move(name)).first->c_str();
}

void TraceBuffer::set_thread_name(int tid, const char* name) { thread_names_[tid] = name; }

void TraceBuffer::push(const TraceEvent& e) {
  if (events_.size() >= max_events_ && e.phase != TraceEvent::Phase::kEnd) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

void TraceBuffer::begin(Seconds t, int tid, const char* name, const char* cat, TraceArg a,
                        TraceArg b, TraceArg c) {
  push({t, tid, TraceEvent::Phase::kBegin, name, cat, {a, b, c}});
}

void TraceBuffer::end(Seconds t, int tid) {
  push({t, tid, TraceEvent::Phase::kEnd, nullptr, nullptr, {}});
}

void TraceBuffer::instant(Seconds t, int tid, const char* name, const char* cat, TraceArg a,
                          TraceArg b) {
  push({t, tid, TraceEvent::Phase::kInstant, name, cat, {a, b, TraceArg{}}});
}

void TraceBuffer::counter(Seconds t, const char* name, double value) {
  push({t, kControlTid, TraceEvent::Phase::kCounter, name, nullptr,
        {TraceArg{"value", value}, TraceArg{}, TraceArg{}}});
}

void write_chrome_trace(std::ostream& os, const std::vector<TraceProcess>& processes) {
  os << "{\n  \"traceEvents\": [";
  bool first = true;
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const TraceBuffer* buf = processes[p].buffer;
    if (buf == nullptr) continue;
    const int pid = static_cast<int>(p) + 1;
    write_metadata(os, first, "process_name", pid, 0, processes[p].label);
    for (const auto& [tid, name] : buf->thread_names()) {
      write_metadata(os, first, "thread_name", pid, tid, name);
    }
    Seconds last_t = 0.0;
    for (const auto& e : buf->events()) {
      last_t = e.t;
      write_one_event(os, first, pid, e);
    }
    if (buf->dropped() > 0) {
      write_truncation_marker(os, first, pid, last_t, buf->dropped());
    }
  }
  os << (first ? "]" : "\n  ]") << ",\n  \"displayTimeUnit\": \"ms\"\n}\n";
}

}  // namespace eadt::obs
