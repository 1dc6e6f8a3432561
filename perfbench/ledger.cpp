#include "ledger.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int Ledger::begin(const std::string& name, long step) {
  SpanRec r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.step = step;
  const int id = static_cast<int>(spans_.size());
  if (s3d::trace::enabled())
    mirror_[id] = std::make_unique<s3d::trace::Span>(
        s3d::trace::intern(name), "perfbench");
  r.t0 = now_s();
  spans_.push_back(std::move(r));
  open_.push_back(id);
  return id;
}

void Ledger::end(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("ledger: span '" + spans_.at(id).name +
                           "' closed out of order");
  spans_[id].t1 = now_s();
  open_.pop_back();
  if (auto it = mirror_.find(id); it != mirror_.end()) {
    it->second->stop();
    mirror_.erase(it);
  }
}

bool Ledger::inside(int id, int under) const {
  if (under < 0) return true;
  for (int p = spans_[id].parent; p >= 0; p = spans_[p].parent)
    if (p == under) return true;
  return false;
}

std::vector<double> Ledger::durations(const std::string& name,
                                      int under) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name && spans_[i].t1 > 0.0 &&
        inside(static_cast<int>(i), under))
      out.push_back(spans_[i].dur());
  return out;
}

double Ledger::self_total(const std::string& name, int under) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child[s.parent] += s.dur();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name && inside(static_cast<int>(i), under))
      total += spans_[i].dur() - child[i];
  return total;
}

std::string Ledger::json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    Json j;
    j.str("name", s.name).num("t0", s.t0).num("t1", s.t1)
        .integer("parent", s.parent).integer("step", s.step);
    out += (i ? ",\n" : "") + j.done();
  }
  return out + "]\n";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

void Json::key(const std::string& k) {
  if (!first_) body_ << ", ";
  first_ = false;
  body_ << '"' << json_escape(k) << "\": ";
}

static std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ << fmt_double(v);
  return *this;
}

Json& Json::integer(const std::string& k, long long v) {
  key(k);
  body_ << v;
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ << (v ? "true" : "false");
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ << '"' << json_escape(v) << '"';
  return *this;
}

Json& Json::arr(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ << '[';
  for (std::size_t i = 0; i < v.size(); ++i)
    body_ << (i ? ", " : "") << fmt_double(v[i]);
  body_ << ']';
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ << json;
  return *this;
}

}  // namespace perfbench
