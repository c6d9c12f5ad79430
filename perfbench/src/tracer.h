#pragma once

/// \file tracer.h
/// Wall-clock spans recorded from outside the library: the benchmark wraps
/// each public call it makes in a Span, keeps every finished span in
/// memory, and writes them as one Chrome trace-event JSON file at the end
/// (load it in chrome://tracing or Perfetto). Each span carries its own id
/// and the id of the span that was open on the same thread when it began,
/// so a layer's self time is its duration minus its children's.
///
/// A Span given a null tracer is a no-op that never reads the clock, which
/// is how the untraced (end-to-end) runs share the traced code path.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// One open span; records itself into the tracer when it goes out of
  /// scope. Must end on the thread that opened it.
  class Span {
   public:
    Span(Tracer* tracer, std::string name) : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      name_ = std::move(name);
      id_ = tracer_->next_id();
      parent_ = open_stack().empty() ? 0 : open_stack().back();
      open_stack().push_back(id_);
      start_ = Clock::now();
    }
    ~Span() {
      if (tracer_ == nullptr) return;
      const Clock::time_point end = Clock::now();
      open_stack().pop_back();
      tracer_->record(std::move(name_), start_, end, id_, parent_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::string name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_{};
  };

  /// Writes every recorded span as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      const std::string layer = r.name.substr(0, r.name.find('.'));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                   i == 0 ? "" : ",", r.name.c_str(), layer.c_str(), r.tid,
                   r.ts_us, r.dur_us, static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Record {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    unsigned tid = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
  };

  static std::vector<std::uint64_t>& open_stack() {
    thread_local std::vector<std::uint64_t> stack;
    return stack;
  }

  std::uint64_t next_id() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++last_id_;
  }

  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id, std::uint64_t parent) {
    Record r;
    r.name = std::move(name);
    r.ts_us = seconds_between(origin_, start) * 1e6;
    r.dur_us = seconds_between(start, end) * 1e6;
    r.id = id;
    r.parent = parent;
    std::lock_guard<std::mutex> lock(mutex_);
    r.tid = thread_index_locked(std::this_thread::get_id());
    records_.push_back(std::move(r));
  }

  unsigned thread_index_locked(std::thread::id id) {
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i] == id) return static_cast<unsigned>(i + 1);
    }
    threads_.push_back(id);
    return static_cast<unsigned>(threads_.size());
  }

  const Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards everything below
  std::uint64_t last_id_ = 0;
  std::vector<Record> records_;
  std::vector<std::thread::id> threads_;
};

}  // namespace perfbench
