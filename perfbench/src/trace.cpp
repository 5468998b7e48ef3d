#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t op)
    : tracer_(tracer.enabled_ ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(tracer_->spans_.size() + 1);
  span.parent = tracer_->open_;
  span.op = op;
  saved_parent_ = tracer_->open_;
  tracer_->open_ = span.id;
  index_ = tracer_->spans_.size();
  span.start_ns = now_ns();
  tracer_->spans_.push_back(span);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = now_ns();
  tracer_->open_ = saved_parent_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) out.push_back(s.seconds());
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"op\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
