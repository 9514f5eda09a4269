#include "obs/slo.h"

#include <cstdio>
#include <cstdlib>

namespace dsim::obs {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_us(SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t) / 1e3);
  return buf;
}

std::string trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

bool parse_number(const std::string& s, double* out) {
  const std::string t = trim(s);
  if (t.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(t.c_str(), &end);
  return end == t.c_str() + t.size();
}

/// Split "metric OP value" on the comparison operator. Two-char operators
/// are matched before their one-char prefixes.
bool split_comparison(const std::string& s, std::string* metric,
                      std::string* op, double* bound) {
  static const char* kOps[] = {"<=", ">=", "==", "!=", "<", ">"};
  for (const char* o : kOps) {
    const size_t pos = s.find(o);
    if (pos == std::string::npos) continue;
    *metric = trim(s.substr(0, pos));
    *op = o;
    if (metric->empty()) return false;
    return parse_number(s.substr(pos + std::string(o).size()), bound);
  }
  return false;
}

bool compare(double lhs, const std::string& op, double rhs) {
  if (op == "<=") return lhs <= rhs;
  if (op == "<") return lhs < rhs;
  if (op == ">=") return lhs >= rhs;
  if (op == ">") return lhs > rhs;
  if (op == "==") return lhs == rhs;
  return lhs != rhs;  // "!="
}

/// "fn(a, b)" -> {a, b}; empty on malformed input.
bool split_call(const std::string& s, size_t fn_len, std::string* a,
                std::string* b) {
  const size_t close = s.rfind(')');
  if (close == std::string::npos || close < fn_len) return false;
  const std::string inner = s.substr(fn_len, close - fn_len);
  const size_t comma = inner.rfind(',');
  if (comma == std::string::npos) return false;
  *a = trim(inner.substr(0, comma));
  *b = trim(inner.substr(comma + 1));
  return !a->empty() && !b->empty();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string SloEngine::parse(const std::string& spec,
                             std::vector<SloRule>* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t semi = spec.find(';', pos);
    const std::string part = trim(
        semi == std::string::npos ? spec.substr(pos)
                                  : spec.substr(pos, semi - pos));
    pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
    if (part.empty()) continue;

    const size_t colon = part.find(':');
    if (colon == std::string::npos) {
      return "--slo: rule '" + part + "' lacks a 'name:' prefix";
    }
    SloRule r;
    r.name = trim(part.substr(0, colon));
    r.text = trim(part.substr(colon + 1));
    if (r.name.empty() || r.name.find(' ') != std::string::npos) {
      return "--slo: bad rule name in '" + part + "'";
    }
    const std::string& e = r.text;
    if (e.rfind("drain(", 0) == 0) {
      r.kind = SloRule::Kind::kDrain;
      std::string metric, n;
      double rounds = 0;
      if (!split_call(e, 6, &metric, &n) || !parse_number(n, &rounds) ||
          rounds < 0 || e.back() != ')') {
        return "--slo: rule '" + r.name +
               "': expected drain(metric, rounds)";
      }
      r.metric = metric;
      r.drain_rounds = static_cast<size_t>(rounds);
    } else if (e.rfind("burn(", 0) == 0) {
      r.kind = SloRule::Kind::kBurn;
      const size_t close = e.find(')');
      std::string metric, n, rest_metric;
      if (close == std::string::npos ||
          !split_call(e.substr(0, close + 1), 5, &metric, &n)) {
        return "--slo: rule '" + r.name +
               "': expected burn(metric OP value, window) OP bound";
      }
      double window = 0;
      if (!split_comparison(metric, &r.metric, &r.inner_op,
                            &r.inner_bound) ||
          !parse_number(n, &window) || window < 1) {
        return "--slo: rule '" + r.name +
               "': expected burn(metric OP value, window) OP bound";
      }
      r.window = static_cast<size_t>(window);
      if (!split_comparison("x " + e.substr(close + 1), &rest_metric, &r.op,
                            &r.bound)) {
        return "--slo: rule '" + r.name + "': burn(...) needs 'OP bound'";
      }
    } else if (e.size() > 1 && e[0] == 'p' && e[1] >= '0' && e[1] <= '9') {
      r.kind = SloRule::Kind::kQuantile;
      const size_t paren = e.find('(');
      const size_t close = e.find(')');
      double pct = 0, window = 0;
      std::string metric, n;
      if (paren == std::string::npos || close == std::string::npos ||
          !parse_number(e.substr(1, paren - 1), &pct) || pct <= 0 ||
          pct > 100 ||
          !split_call(e.substr(0, close + 1), paren + 1, &metric, &n) ||
          !parse_number(n, &window) || window < 1 ||
          !split_comparison("x " + e.substr(close + 1), &n, &r.op,
                            &r.bound)) {
        return "--slo: rule '" + r.name +
               "': expected pNN(metric, window) OP bound";
      }
      r.metric = metric;
      r.q = pct / 100.0;
      r.window = static_cast<size_t>(window);
    } else {
      r.kind = SloRule::Kind::kThreshold;
      if (!split_comparison(e, &r.metric, &r.op, &r.bound)) {
        return "--slo: rule '" + r.name + "': expected 'metric OP value'";
      }
    }
    out->push_back(std::move(r));
  }
  return "";
}

std::string SloEngine::add_rules(const std::string& spec) {
  std::vector<SloRule> rules;
  const std::string err = parse(spec, &rules);
  if (!err.empty()) return err;
  for (SloRule& r : rules) add_rule(std::move(r));
  return "";
}

void SloEngine::add_rule(SloRule rule) {
  RuleState st;
  st.rule = std::move(rule);
  states_.push_back(std::move(st));
}

std::vector<AlertEvent> SloEngine::evaluate(const RoundSeries& series) {
  std::vector<AlertEvent> out;
  if (series.empty()) return out;
  const RoundSeries::Sample& s = series.back();
  for (RuleState& st : states_) {
    const SloRule& r = st.rule;
    double measured = 0;
    bool healthy = true;
    switch (r.kind) {
      case SloRule::Kind::kThreshold:
        measured = series.value(r.metric);
        healthy = compare(measured, r.op, r.bound);
        break;
      case SloRule::Kind::kQuantile:
        measured = series.window_quantile(r.metric, r.q, r.window);
        healthy = compare(measured, r.op, r.bound);
        break;
      case SloRule::Kind::kDrain:
        measured =
            static_cast<double>(series.consecutive_nonzero(r.metric));
        healthy = measured <= static_cast<double>(r.drain_rounds);
        break;
      case SloRule::Kind::kBurn:
        measured = series.window_burn(r.metric, r.inner_bound, r.window);
        healthy = compare(measured, r.op, r.bound);
        break;
    }
    if (!healthy && !st.active) {
      st.active = true;
      ++fired_;
      AlertEvent ev;
      ev.rule = r.name;
      ev.round = s.round;
      ev.at = s.at;
      ev.fired = true;
      ev.value = measured;
      ev.message = r.name + ": " + r.text + " violated (measured " +
                   fmt_double(measured) + ")";
      events_.push_back(ev);
      out.push_back(std::move(ev));
    } else if (healthy && st.active) {
      st.active = false;
      AlertEvent ev;
      ev.rule = r.name;
      ev.round = s.round;
      ev.at = s.at;
      ev.fired = false;
      ev.value = measured;
      ev.message = r.name + ": recovered (measured " + fmt_double(measured) +
                   ")";
      events_.push_back(ev);
      out.push_back(std::move(ev));
    }
  }
  return out;
}

std::vector<std::string> SloEngine::active() const {
  std::vector<std::string> out;
  for (const RuleState& st : states_) {
    if (st.active) out.push_back(st.rule.name);
  }
  return out;
}

std::string SloEngine::json() const {
  // Appended piece by piece: `"lit" + std::string` chains trip GCC 12's
  // false -Wrestrict in optimized builds.
  std::string out = "{\"rules\":[";
  for (size_t i = 0; i < states_.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"name\":\"";
    out += json_escape(states_[i].rule.name);
    out += "\",\"rule\":\"";
    out += json_escape(states_[i].rule.text);
    out += "\"}";
  }
  out += "],\"active\":[";
  const std::vector<std::string> act = active();
  for (size_t i = 0; i < act.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"";
    out += json_escape(act[i]);
    out += "\"";
  }
  out += "],\"alerts_fired\":";
  out += std::to_string(fired_);
  out += ",\"events\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const AlertEvent& ev = events_[i];
    if (i != 0) out += ",";
    out += "{\"rule\":\"";
    out += json_escape(ev.rule);
    out += "\",\"round\":";
    out += std::to_string(ev.round);
    out += ",\"t_us\":";
    out += fmt_us(ev.at);
    out += ",\"type\":\"";
    out += ev.fired ? "fired" : "cleared";
    out += "\",\"value\":";
    out += fmt_double(ev.value);
    out += ",\"message\":\"";
    out += json_escape(ev.message);
    out += "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace dsim::obs
