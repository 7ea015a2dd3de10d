#include "sim/service.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "model/model_api.hpp"
#include "sim/batch_kernel.hpp"
#include "util/parse.hpp"

namespace dckpt::sim {

namespace {

/// Latency histogram layout: log10(microseconds + 1) over [0, 7) -- from
/// sub-microsecond cache hits to multi-second Monte-Carlo campaigns at
/// 0.05-decade resolution. Documented in docs/SERVE.md; keep in sync.
constexpr double kLatencyLogLo = 0.0;
constexpr double kLatencyLogHi = 7.0;
constexpr std::size_t kLatencyBins = 140;

/// Quantizes one numeric request parameter for the cache key. %.6g folds
/// noise beyond six significant digits (1e-6 relative), so clients sending
/// 25200.0000001 and 25200 share an entry; it is also exactly the rounding
/// a planner UI slider produces.
std::string quantize(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

struct Request {
  std::string kind;
  std::string protocol = "triple";
  std::string scenario = "base";
  double mtbf = 25200.0;
  double phi_ratio = 0.25;
  double nodes = 0.0;
  double period = 0.0;   ///< 0 = closed-form optimum
  double tbase = 100000.0;
  double trials = 0.0;   ///< 0 = service default
  double seed = 42.0;
  double weibull_shape = 0.0;
  double mission_hours = 24.0;
};

/// Largest double that casts to an integer type without UB headroom
/// worries: every integer up to 2^53 is exactly representable.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/// The numeric request keys. Counts stay doubles (so cache keys quantize
/// them like every other value) but are cast to integers later: a
/// negative or over-2^53 double makes that cast undefined behavior, and a
/// fractional count would be truncated silently (trials=0.5 ran zero
/// trials), so both are rejected.
struct NumericKey {
  std::string_view name;
  double Request::*field;
  bool count;
};

constexpr NumericKey kNumericKeys[] = {
    {"mtbf", &Request::mtbf, false},
    {"phi-ratio", &Request::phi_ratio, false},
    {"nodes", &Request::nodes, true},
    {"period", &Request::period, false},
    {"tbase", &Request::tbase, false},
    {"trials", &Request::trials, true},
    {"seed", &Request::seed, true},
    {"weibull-shape", &Request::weibull_shape, false},
    {"mission-hours", &Request::mission_hours, false},
};

/// Every request parameter is a physical quantity or a count: the value
/// must be one finite number (util::parse_number), never nan or inf, which
/// would flow into casts and comparisons as poison.
double parse_value(const NumericKey& key, const std::string& text) {
  const auto parsed = util::parse_number<double>(text);
  const double value = parsed.value;
  const bool castable = value >= 0.0 && value <= kMaxExactInteger &&
                        value == std::trunc(value);
  if (parsed && (castable || !key.count)) return value;
  const std::string name(key.name);
  if (parsed.error == util::ParseError::kNonFinite) {
    throw EvalError("parse", "non-finite value for '" + name + "': " + text);
  }
  if (!parsed) {
    throw EvalError("parse", "bad numeric value for '" + name + "': " + text);
  }
  throw EvalError("parse",
                  "'" + name + "' must be a non-negative integer <= 2^53");
}

const NumericKey* numeric_key(std::string_view name) {
  for (const auto& key : kNumericKeys) {
    if (key.name == name) return &key;
  }
  return nullptr;
}

Request parse_request(const std::string& line) {
  Request req;
  std::istringstream in(line);
  std::string token;
  in >> token;  // consume "EVAL"
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "kind") {
      req.kind = value;
    } else if (key == "protocol") {
      req.protocol = value;
    } else if (key == "scenario") {
      req.scenario = value;
    } else if (const NumericKey* numeric = numeric_key(key)) {
      req.*(numeric->field) = parse_value(*numeric, value);
    } else {
      throw std::invalid_argument("unknown key '" + key + "'");
    }
  }
  if (req.kind.empty()) {
    throw std::invalid_argument("missing kind= (waste|period|risk|sim)");
  }
  if (req.scenario != "base" && req.scenario != "exa") {
    throw std::invalid_argument("scenario must be base or exa");
  }
  if (req.period < 0.0) {
    throw EvalError("parse", "'period' must be >= 0 (0 = closed-form)");
  }
  return req;
}

model::Parameters params_from(const Request& req) {
  const auto scenario = model::scenario_by_name(req.scenario);
  auto params =
      scenario.at_phi_ratio(req.phi_ratio).with_mtbf(req.mtbf);
  if (req.nodes > 0.0) {
    params.nodes = static_cast<std::uint64_t>(req.nodes);
  }
  params.validate();
  return params;
}

/// Canonical cache key: every parameter that influences the answer, in a
/// fixed order, quantized. period=0 keys the "optimal period" variant.
std::string cache_key(const Request& req) {
  std::string key = req.kind;
  key += '|';
  key += req.protocol;
  key += '|';
  key += req.scenario;
  for (const double v :
       {req.mtbf, req.phi_ratio, req.nodes, req.period, req.tbase, req.trials,
        req.seed, req.weibull_shape, req.mission_hours}) {
    key += '|';
    key += quantize(v);
  }
  return key;
}

double resolve_period(model::Protocol protocol,
                      const model::Parameters& params, double requested) {
  if (requested > 0.0) return requested;
  const auto opt = model::optimal_period_closed_form(protocol, params);
  if (!opt.feasible) {
    throw std::invalid_argument(
        "platform stalls at the closed-form optimum; pass period= explicitly");
  }
  return opt.period;
}

}  // namespace

util::JsonValue eval_error_json(const std::string& code,
                                const std::string& message) {
  auto v = util::JsonValue::object();
  v.set("record", "eval_error");
  v.set("code", code);
  v.set("error", message);
  return v;
}

util::JsonValue ServerCounters::to_json() const {
  auto v = util::JsonValue::object();
  v.set("accepted", accepted);
  v.set("shed", shed);
  v.set("read_timeouts", read_timeouts);
  v.set("write_timeouts", write_timeouts);
  v.set("overlong_lines", overlong_lines);
  v.set("disconnects", disconnects);
  v.set("peak_connections", peak_connections);
  v.set("drained", drained);
  return v;
}

void EvalServiceOptions::validate() const {
  if (cache_capacity == 0) {
    throw std::invalid_argument("EvalServiceOptions: zero cache_capacity");
  }
  if (default_trials == 0 || max_trials < default_trials) {
    throw std::invalid_argument(
        "EvalServiceOptions: need 0 < default_trials <= max_trials");
  }
}

EvalService::EvalService(EvalServiceOptions options)
    : options_(options),
      pool_(options.threads),
      cache_((options.validate(), options.cache_capacity)),
      latency_log_us_(kLatencyLogLo, kLatencyLogHi, kLatencyBins),
      started_(std::chrono::steady_clock::now()) {}

std::string EvalService::handle_line(const std::string& line) {
  const auto start = std::chrono::steady_clock::now();
  ++requests_;
  std::istringstream in(line);
  std::string command;
  in >> command;
  std::string response;
  if (command == "EVAL") {
    ++evals_;
    try {
      response = handle_eval(line).dump();
    } catch (const EvalError& error) {
      ++errors_;
      response = eval_error_json(error.code(), error.what()).dump();
    } catch (const std::invalid_argument& error) {
      // Argument validation below the service (model parameter checks,
      // protocol-name parsing) is still the client's fault.
      ++errors_;
      response = eval_error_json("parse", error.what()).dump();
    } catch (const std::exception& error) {
      ++errors_;
      response = eval_error_json("internal", error.what()).dump();
    }
  } else if (command == "STATS") {
    response = stats_json().dump();
  } else if (command == "QUIT") {
    auto v = util::JsonValue::object();
    v.set("record", "bye");
    response = v.dump();
  } else {
    ++errors_;
    response = eval_error_json("parse", "unknown command '" + command +
                                            "' (expected EVAL, STATS or QUIT)")
                   .dump();
  }
  record_latency(start);
  return response;
}

EvalService::RequestClass EvalService::classify_line(
    const std::string& line) const {
  std::istringstream in(line);
  std::string command;
  in >> command;
  if (command != "EVAL") return RequestClass::kLight;
  try {
    const Request req = parse_request(line);
    if (req.kind != "sim") return RequestClass::kLight;
    // A cached sim replays in microseconds: admit it inline rather than
    // burning a queue slot (and possibly a busy rejection) on it.
    return cache_.contains(cache_key(req)) ? RequestClass::kLight
                                           : RequestClass::kHeavy;
  } catch (const std::exception&) {
    return RequestClass::kLight;  // the error record is cheap to produce
  }
}

util::JsonValue EvalService::handle_eval(const std::string& line) {
  const Request req = parse_request(line);
  const std::string key = cache_key(req);
  if (util::JsonValue* hit = cache_.get(key)) {
    util::JsonValue response = *hit;
    response.set("cached", true);
    return response;
  }

  const auto protocol = model::parse_protocol_name(req.protocol);
  const auto params = params_from(req);
  auto v = util::JsonValue::object();
  v.set("record", "eval");
  v.set("kind", req.kind);
  v.set("protocol", model::protocol_name(protocol));

  if (req.kind == "waste") {
    const double period = resolve_period(protocol, params, req.period);
    v.set("period", period);
    v.set("waste", model::waste(protocol, params, period));
    v.set("min_period", model::min_period(protocol, params));
  } else if (req.kind == "period") {
    const auto opt = model::optimal_period_closed_form(protocol, params);
    v.set("period", opt.period);
    v.set("waste", opt.waste);
    v.set("feasible", opt.feasible);
  } else if (req.kind == "risk") {
    const double mission = req.mission_hours * 3600.0;
    v.set("risk_window", model::risk_window(protocol, params));
    v.set("success_probability",
          model::success_probability(protocol, params, mission));
    v.set("mission_hours", req.mission_hours);
  } else if (req.kind == "sim") {
    if (params.nodes > 100000) {
      throw EvalError("limit", "nodes too large for kind=sim (keep <= 100000)");
    }
    SimConfig config;
    config.protocol = protocol;
    config.params = params;
    config.t_base = req.tbase;
    config.stop_on_fatal = false;
    config.period = resolve_period(protocol, params, req.period);

    MonteCarloOptions mc_options;
    const std::uint64_t trials =
        req.trials > 0.0 ? static_cast<std::uint64_t>(req.trials)
                         : options_.default_trials;
    if (trials > options_.max_trials) {
      throw EvalError("limit", "trials exceeds the service limit");
    }
    mc_options.trials = trials;
    mc_options.seed = static_cast<std::uint64_t>(req.seed);
    mc_options.threads = options_.threads;
    mc_options.engine = options_.engine;
    if (req.weibull_shape > 0.0) {
      mc_options.weibull = util::Weibull::from_mean(req.weibull_shape,
                                                    params.node_mtbf());
    }
    const auto mc = run_monte_carlo(config, mc_options, pool_);
    kernel_.merge(mc.kernel);
    sim_trials_ += trials;
    v.set("period", config.period);
    v.set("trials", trials);
    v.set("waste_mean", mc.waste.mean());
    v.set("waste_halfwidth", mc.waste.confidence_halfwidth());
    v.set("makespan_mean", mc.makespan.mean());
    v.set("failures_mean", mc.failures.mean());
    v.set("survival", mc.success.estimate());
    v.set("diverged", mc.diverged);
  } else {
    throw std::invalid_argument("unknown kind '" + req.kind +
                                "' (waste|period|risk|sim)");
  }

  cache_.put(key, v);
  v.set("cached", false);
  return v;
}

void EvalService::record_latency(
    std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double us =
      std::chrono::duration<double, std::micro>(elapsed).count();
  latency_log_us_.add(std::log10(us + 1.0));
}

util::JsonValue EvalService::stats_json() const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  auto v = util::JsonValue::object();
  v.set("record", "serve_stats");
  v.set("uptime_s", uptime);
  v.set("requests", requests_);
  v.set("evals", evals_);
  v.set("errors", errors_);
  v.set("qps", uptime > 0.0 ? static_cast<double>(requests_) / uptime : 0.0);

  auto cache = util::JsonValue::object();
  cache.set("hits", cache_.hits());
  cache.set("misses", cache_.misses());
  cache.set("evictions", cache_.evictions());
  cache.set("hit_rate", cache_.hit_rate());
  cache.set("size", static_cast<std::uint64_t>(cache_.size()));
  cache.set("capacity", static_cast<std::uint64_t>(cache_.capacity()));
  v.set("cache", std::move(cache));

  auto kernel = util::JsonValue::object();
  kernel.set("waves", kernel_.waves);
  kernel.set("lanes", kernel_.lanes);
  kernel.set("fast_periods", kernel_.fast_periods);
  kernel.set("exact_steps", kernel_.exact_steps);
  kernel.set("occupancy", kernel_.occupancy(kBatchLanes));
  v.set("kernel", std::move(kernel));

  auto latency = util::JsonValue::object();
  const std::uint64_t in_range = latency_log_us_.total_count() -
                                 latency_log_us_.underflow() -
                                 latency_log_us_.overflow() -
                                 latency_log_us_.nonfinite();
  latency.set("count", latency_log_us_.total_count());
  if (in_range > 0) {
    // Stored as log10(us + 1); undo the transform for the exported values.
    latency.set("p50_us",
                std::pow(10.0, latency_log_us_.quantile(0.5)) - 1.0);
    latency.set("p99_us",
                std::pow(10.0, latency_log_us_.quantile(0.99)) - 1.0);
  }
  v.set("latency", std::move(latency));
  v.set("sim_trials", sim_trials_);

  static const ServerCounters kNoTransport{};
  v.set("server", (transport_ ? *transport_ : kNoTransport).to_json());
  return v;
}

}  // namespace dckpt::sim
