#pragma once
// Benchmark-side span ledger and JSON writer.
//
// The ledger records spans around the public calls the benchmark makes
// (scenario build, solver construction, initialize, each committed step,
// analysis and checkpoint hooks, restores). Every span carries its name,
// start, end, parent span and the step index it belongs to. Spans live in
// memory; when the s3d::trace runtime is enabled each span is mirrored as
// a trace::Span so the existing Chrome-trace exporter writes them beside
// the solver's own spans at exit. The ledger is single-threaded: only
// rank 0 records into it.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call.
double now_s();

struct SpanRec {
  std::string name;
  double t0 = 0.0, t1 = 0.0;  ///< seconds (now_s clock)
  int parent = -1;            ///< index of the enclosing span, -1: root
  long step = -1;             ///< step index the span belongs to
  double dur() const { return t1 - t0; }
};

class Ledger {
 public:
  /// Open a span as a child of the innermost open span.
  int begin(const std::string& name, long step = -1);
  /// Close span `id` (must be the innermost open span).
  void end(int id);

  const std::vector<SpanRec>& spans() const { return spans_; }
  /// Durations (seconds) of every closed span called `name`, in order;
  /// with `under` >= 0 only spans inside that span's subtree.
  std::vector<double> durations(const std::string& name,
                                int under = -1) const;
  /// Summed self time (seconds) of spans called `name` (optionally inside
  /// `under`'s subtree): each span's duration minus the time its direct
  /// children cover.
  double self_total(const std::string& name, int under = -1) const;
  /// Every span as a JSON array of {name, t0, t1, parent, step}.
  std::string json() const;

 private:
  bool inside(int id, int under) const;

  std::vector<SpanRec> spans_;
  std::vector<int> open_;
  std::map<int, std::unique_ptr<s3d::trace::Span>> mirror_;
};

/// RAII wrapper around Ledger::begin/end; a null ledger records nothing.
class Scope {
 public:
  Scope(Ledger* l, const std::string& name, long step = -1)
      : l_(l), id_(l ? l->begin(name, step) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void close() {
    if (l_ && id_ >= 0) l_->end(id_);
    id_ = -1;
  }

 private:
  Ledger* l_;
  int id_;
};

/// Minimal JSON object writer (keys in insertion order, doubles printed
/// with all 17 significant digits).
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, long long v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  Json& arr(const std::string& key, const std::vector<double>& v);
  Json& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_.str() + "}"; }

 private:
  void key(const std::string& k);
  std::ostringstream body_;
  bool first_ = true;
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
