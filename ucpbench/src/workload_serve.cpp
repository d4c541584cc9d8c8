// The `serve` workload: an in-process serve::Server (the ucpd code path)
// with its request journal on, driven by one closed-loop connection over a
// seeded list of three request kinds:
//
//   fresh   a (program, configuration, tech) case not asked before — runs
//           the pipeline and appends to the journal;
//   repeat  the content of a recent fresh request under a new id — answered
//           from the response cache;
//   resend  an id sent before, re-sent verbatim — answered by journal replay.
//
// The mix is assumed, not measured: no traffic record of ucpd exists. It
// is sized by the one hard requirement, at least 1000 samples in each
// latency class (misses, and hits = repeats plus re-sends) so that ten lie
// beyond the p99. Each class gets 1200, a fifth over, and the hits are
// split evenly between the cache and the journal, so hit_ratio is 1/2 by
// construction.
//
// The client waits for each reply before sending the next request, so a
// request that refers to an earlier one always finds it answered, and every
// request's path through the server is fixed by the list. One connection
// and one worker keep the pipeline's work in list order: with two of each,
// whether two dense audits ran at once moved the peak RSS by up to 20 %
// between runs. Latencies are kept as samples; tails are exact order
// statistics.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>

#include "cache/config.hpp"
#include "ir/text_codec.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/request_journal.hpp"
#include "serve/server.hpp"
#include "suite/suite.hpp"
#include "workloads.hpp"

namespace ucpbench {

using namespace ucp;

namespace {

constexpr std::uint32_t kWorkers = 1;
// Request counts of a 20 s run; see the mix above.
constexpr double kFresh = 1200, kRepeats = 600, kResends = 600;
// A repeat targets one of the last kRepeatWindow fresh requests. At half
// the server's default 256-entry response cache, its target is still
// cached, so every repeat is a hit.
constexpr std::size_t kRepeatWindow = 128;
constexpr std::uint64_t kFreshOrderSeed = 0x75637064;

enum class Kind { kFresh, kRepeat, kResend };

struct Planned {
  Kind kind = Kind::kFresh;
  serve::Request request;  ///< without its payload; see full_request()
  std::size_t program = 0;       ///< suite index of the payload program
  std::ptrdiff_t refers_to = -1;  ///< list position answered first
};

struct RequestList {
  std::vector<std::string> texts;  ///< suite programs as IR text
  std::vector<Planned> items;
  std::size_t fresh = 0, repeats = 0, resends = 0;
};

/// The seeded request list. Sized for the default 20 s run: kFresh grid
/// cases as fresh requests, then kRepeats repeats and kResends re-sends
/// with seeded targets and positions.
RequestList build_request_list(const Args& args) {
  RequestList list;
  const auto& suite_info = suite::all_benchmarks();
  for (const suite::BenchmarkInfo& info : suite_info)
    list.texts.push_back(ir::to_text(suite::build_benchmark(info.name)));
  const auto& configs = cache::paper_cache_configs();
  const energy::TechNode techs[] = {energy::TechNode::k45nm,
                                    energy::TechNode::k32nm};

  struct Case {
    std::size_t program, config, tech;
  };
  std::vector<Case> universe;
  for (std::size_t p = 0; p < suite_info.size(); ++p)
    for (std::size_t c = 0; c < configs.size(); ++c)
      for (std::size_t t = 0; t < 2; ++t) universe.push_back({p, c, t});
  // The fresh cases are the same on every seed, in one fixed interleaved
  // order: which cases run, and in which order, moves the throughput and
  // the peak memory more than the bounds allow. The seed places the
  // repeats and re-sends and picks their targets.
  Rng(kFreshOrderSeed).shuffle(universe);
  Rng rng(args.seed);

  const double share = args.seconds / 20.0;
  auto scaled = [&](double n) {
    return static_cast<std::size_t>(std::max(1.0, std::round(n * share)));
  };
  const std::size_t fresh = std::min(scaled(kFresh), universe.size());
  const std::size_t repeats = scaled(kRepeats), resends = scaled(kResends);

  // The first request is fresh so every later reference has a target; the
  // rest of the kinds are shuffled.
  std::vector<Kind> kinds(fresh - 1, Kind::kFresh);
  kinds.insert(kinds.end(), repeats, Kind::kRepeat);
  kinds.insert(kinds.end(), resends, Kind::kResend);
  rng.shuffle(kinds);
  kinds.insert(kinds.begin(), Kind::kFresh);

  std::vector<std::size_t> fresh_positions;  // list positions of fresh items
  std::size_t next_case = 0;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    Planned item;
    item.kind = kinds[i];
    if (item.kind == Kind::kFresh) {
      const Case& c = universe[next_case++];
      item.program = c.program;
      item.request.id = "f" + std::to_string(i);
      item.request.config_id = configs[c.config].id;
      item.request.config = configs[c.config].config;
      item.request.tech = techs[c.tech];
      fresh_positions.push_back(i);
      ++list.fresh;
    } else if (item.kind == Kind::kRepeat) {
      const std::size_t n = fresh_positions.size();
      const std::size_t lo = n > kRepeatWindow ? n - kRepeatWindow : 0;
      const std::size_t target = fresh_positions[lo + rng.below(n - lo)];
      item = list.items[target];
      item.kind = Kind::kRepeat;
      item.request.id = "r" + std::to_string(i);
      item.refers_to = static_cast<std::ptrdiff_t>(target);
      ++list.repeats;
    } else {
      // Any earlier fresh or repeat request, re-sent with its own id.
      std::size_t target = rng.below(i);
      while (list.items[target].kind == Kind::kResend) --target;
      item = list.items[target];
      item.kind = Kind::kResend;
      item.refers_to = static_cast<std::ptrdiff_t>(target);
      ++list.resends;
    }
    list.items.push_back(std::move(item));
  }
  return list;
}

/// The request as sent: the planned fields plus the program text, which the
/// list keeps once per program rather than once per request.
serve::Request full_request(const RequestList& list, const Planned& item) {
  serve::Request request = item.request;
  request.program_text = list.texts[item.program];
  return request;
}

serve::ServerOptions server_options(const std::string& journal) {
  serve::ServerOptions options;
  options.workers = kWorkers;
  options.journal_path = journal;
  options.audit_soundness = true;
  return options;
}

struct Answer {
  bool transport_ok = false;
  std::string transport_error;
  double ms = 0;
  /// The reply, without its program text unless drive() was asked to keep
  /// a fresh reply's. A hit or a replay is checked through `first_served`
  /// instead, so the memory the client holds does not depend on which
  /// targets the seed picked.
  serve::Response response;
  bool program_parses = false;     ///< fresh, non-error replies only
  std::uint64_t wire = 0;          ///< FNV-1a of the reply's bytes
  std::uint64_t first_served = 0;  ///< FNV-1a of the bytes its first
                                   ///< serving must have had
};

/// The reply as the first serving of its content would have serialized it:
/// a repeat under its target's id and uncached, a re-send unreplayed.
std::string as_first_served(serve::Response r, const Planned& item,
                            const RequestList& list) {
  if (item.kind == Kind::kRepeat) {
    r.id = list.items[static_cast<std::size_t>(item.refers_to)].request.id;
    r.cached = false;
  }
  r.replayed = false;
  return serve::serialize_response(r);
}

/// Sends the list through `port` from one closed-loop connection: each
/// request goes out when the previous reply is in. Each reply is hashed,
/// and a fresh one's program parsed, as it arrives; only with `keep_text`
/// does a fresh reply keep its program text. Returns the wall time of the
/// whole list less the time the client spent on those checks.
double drive(std::uint16_t port, const RequestList& list,
             std::vector<Answer>& answers, bool keep_text, Tracer* tracer) {
  answers.assign(list.items.size(), Answer{});
  double checking_s = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < list.items.size(); ++i) {
    Answer& a = answers[i];
    const Planned& item = list.items[i];
    const serve::Request request = full_request(list, item);
    const Clock::time_point sent = Clock::now();
    Expected<serve::Response> r = [&] {
      Tracer::Scope s(tracer, span::kServeRequest);
      return serve::call(port, request);
    }();
    const Clock::time_point received = Clock::now();
    a.ms = std::chrono::duration<double, std::milli>(received - sent).count();
    a.transport_ok = r.ok();
    if (!r.ok()) {
      a.transport_error = r.status().message();
      continue;
    }
    a.response = std::move(r).value();
    a.wire = fnv1a(serve::serialize_response(a.response));
    a.first_served = fnv1a(as_first_served(a.response, item, list));
    const bool fresh = item.kind == Kind::kFresh;
    if (fresh && a.response.status != serve::ResponseStatus::kError)
      a.program_parses = ir::from_text_checked(a.response.program_text).ok();
    if (!(fresh && keep_text)) {
      a.response.program_text.clear();
      a.response.program_text.shrink_to_fit();
    }
    checking_s += seconds_since(received);
  }
  return seconds_since(start) - checking_s;
}

struct Outcome {
  Samples miss_ms, hit_ms;
  std::size_t answered = 0;
};

/// The serve correctness gate plus failure accounting and latency classes.
Outcome check_answers(const RequestList& list,
                      const std::vector<Answer>& answers, Report& report) {
  Outcome out;
  report.attempted = answers.size();
  std::size_t bad_kind = 0, bad_hit = 0, bad_replay = 0, bad_parse = 0;
  std::size_t bad_audit = 0, bad_theorem = 0, transport = 0;
  std::string first_transport_error;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Planned& item = list.items[i];
    const Answer& a = answers[i];
    if (!a.transport_ok) {
      ++report.failed;
      if (transport++ == 0) first_transport_error = a.transport_error;
      continue;
    }
    ++out.answered;
    const serve::Response& r = a.response;
    if (r.status != serve::ResponseStatus::kOk) ++report.failed;
    if (r.audit == "violated" || r.audit == "inconclusive") ++bad_audit;
    if (r.status == serve::ResponseStatus::kOk &&
        r.tau_optimized > r.tau_original)
      ++bad_theorem;
    // A hit or replay must equal its fresh target byte for byte, so
    // parsing the fresh replies covers every program served.
    if (item.kind == Kind::kFresh &&
        r.status != serve::ResponseStatus::kError && !a.program_parses)
      ++bad_parse;

    const bool hit = r.cached || r.replayed;
    (hit ? out.hit_ms : out.miss_ms).add(a.ms);
    const bool path_ok = item.kind == Kind::kFresh    ? !hit
                         : item.kind == Kind::kRepeat ? r.cached && !r.replayed
                                                      : r.replayed;
    if (!path_ok) ++bad_kind;
    if (item.refers_to < 0) continue;
    const Answer& first = answers[static_cast<std::size_t>(item.refers_to)];
    if (!first.transport_ok) continue;
    if (a.first_served != first.wire)
      ++(item.kind == Kind::kRepeat ? bad_hit : bad_replay);
  }
  if (transport)
    report.notes.push_back(std::to_string(transport) +
                           " requests got no reply; first: " +
                           first_transport_error);
  if (bad_audit)
    report.fail(std::to_string(bad_audit) +
                " replies carry a violated or inconclusive audit");
  if (bad_theorem)
    report.fail(std::to_string(bad_theorem) +
                " replies have tau_w(opt) > tau_w(orig) (Theorem 1)");
  if (bad_parse)
    report.fail(std::to_string(bad_parse) + " response programs do not parse");
  if (bad_kind)
    report.fail(std::to_string(bad_kind) +
                " requests took an unexpected path (cache/replay)");
  if (bad_hit)
    report.fail(std::to_string(bad_hit) +
                " cache hits differ from the miss that filled the cache");
  if (bad_replay)
    report.fail(std::to_string(bad_replay) +
                " replays differ from the first response for their id");
  return out;
}

void report_tails(Outcome& o, Report& report) {
  for (auto [name, samples] :
       {std::pair<const char*, Samples*>{"miss", &o.miss_ms},
        std::pair<const char*, Samples*>{"hit", &o.hit_ms}}) {
    const std::string n = name;
    report.information(n + "_samples", static_cast<double>(samples->size()),
                       "count");
    report.information(n + "_p50_ms", samples->quantile(0.5), "ms");
    report.information(n + "_p99_ms", samples->quantile(0.99), "ms");
    // The class's own throughput: requests per second of their latency.
    report.information(n + "_per_s",
                       samples->size() ? 1e3 / samples->mean() : 0.0, "1/s");
    if (!samples->valid_tail(0.99))
      report.fail(n + " p99 rests on " + std::to_string(samples->size()) +
                  " samples; 1000 are needed for 10 to lie beyond it");
  }
}

}  // namespace

Report run_serve(const Args& args) {
  Report report;
  report.workload = "serve";

  // Set-up: the request list, a server start and its journal open.
  std::vector<double> setups, list_setups;
  RequestList list;
  std::unique_ptr<serve::Server> server;
  const std::string journal = args.work_dir + "/serve.journal";
  for (int i = 0; i < kServeSetups; ++i) {
    if (server) server->stop();
    server.reset();
    std::filesystem::remove(journal);
    const Clock::time_point start = Clock::now();
    list = build_request_list(args);
    list_setups.push_back(seconds_since(start));
    server = std::make_unique<serve::Server>(server_options(journal));
    const Status started = server->start();
    setups.push_back(seconds_since(start));
    if (!started.ok()) {
      report.fail("server start: " + started.message());
      return report;
    }
  }
  report.information("setup_request_list_s", median(list_setups), "s");
  report.notes.push_back("1 closed-loop connection, " +
                         std::to_string(kWorkers) + " server worker");

  std::vector<Answer> answers;
  const double cpu_start = process_cpu_s();
  const double wall_s =
      drive(server->port(), list, answers, /*keep_text=*/false, nullptr);
  const double cpu_s = process_cpu_s() - cpu_start;
  const serve::ServerStats stats = server->stats();
  server->stop();
  server.reset();
  std::filesystem::remove(journal);

  Outcome outcome = check_answers(list, answers, report);
  report_tails(outcome, report);
  report.information("fresh_samples", static_cast<double>(list.fresh),
                     "count");
  report.information("repeat_samples", static_cast<double>(list.repeats),
                     "count");
  report.information("resend_samples", static_cast<double>(list.resends),
                     "count");
  report.information("failed_pct",
                     100.0 * static_cast<double>(report.failed) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, report.attempted)),
                     "%");
  report.information("server_shed", static_cast<double>(stats.shed), "count");
  std::uint64_t fp = fnv1a("ucp-serve");
  for (const Answer& a : answers) fp = fnv1a(hex64(a.wire), fp);
  report.fingerprint = hex64(fp);

  report_end_to_end(median(setups), static_cast<double>(outcome.answered),
                    wall_s, cpu_s, report, args.trace);
  if (!args.trace) return report;

  // Traced pass 1: the same list against a fresh server with counting on,
  // one span per client call; responses must equal the untraced pass's.
  const std::string traced_journal = args.work_dir + "/serve-traced.journal";
  std::filesystem::remove(traced_journal);
  begin_counting();
  const std::int64_t traced_start = Tracer::now_ns();
  Tracer tracer;
  std::vector<Answer> traced_answers;
  serve::ServerStats traced_stats;
  double traced_s = 0;
  {
    serve::Server traced_server(server_options(traced_journal));
    const Status started = traced_server.start();
    if (!started.ok()) {
      report.fail("traced server start: " + started.message());
      return report;
    }
    traced_s = drive(traced_server.port(), list, traced_answers,
                     /*keep_text=*/true, &tracer);
    traced_stats = traced_server.stats();
    traced_server.stop();
  }
  const double queue_peak = static_cast<double>(
      obs::registry().gauge("serve.queue_depth_peak").value());
  std::filesystem::remove(traced_journal);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < answers.size(); ++i)
    if (answers[i].wire != traced_answers[i].wire) ++differing;
  if (differing)
    report.fail(std::to_string(differing) +
                " traced responses differ from the untraced run");
  Report unused;  // the gate already ran on the untraced answers
  Outcome traced_outcome = check_answers(list, traced_answers, unused);

  // Traced pass 2: every fresh case through the wrapped pipeline, checked
  // against the server's answer field by field. The traced answers kept
  // their program text and equal the untraced ones byte for byte.
  begin_counting();
  std::map<std::size_t, std::unique_ptr<TracedProgram>> systems;
  std::map<std::size_t, ir::Program> parsed;
  const core::OptimizerOptions optimizer;
  std::size_t pipeline_mismatches = 0;
  std::vector<exp::UseCaseResult> group;
  for (std::size_t i = 0; i < list.items.size(); ++i) {
    const Planned& item = list.items[i];
    if (item.kind != Kind::kFresh || !traced_answers[i].transport_ok) continue;
    auto it = parsed.find(item.program);
    if (it == parsed.end()) {
      it = parsed.emplace(item.program,
                          ir::from_text_checked(list.texts[item.program])
                              .value())
               .first;
      systems[item.program] = std::make_unique<TracedProgram>(
          build_traced_program(it->second, tracer));
    }
    ir::Program optimized = it->second;
    std::string why;
    const bool ran = run_traced_group(
        it->second, "request",
        cache::NamedCacheConfig{item.request.config_id, item.request.config},
        {item.request.tech}, optimizer, *systems[item.program]->ipet, tracer,
        group, why, &optimized);
    const serve::Response& r = traced_answers[i].response;
    const exp::UseCaseResult& row = group.front();
    const bool same =
        ran && row.outcome == exp::CaseOutcome::kCompleted &&
        r.tau_original == row.original.tau_wcet &&
        r.tau_optimized == row.optimized.tau_wcet &&
        r.mem_cycles_original == row.original.run.mem_cycles &&
        r.mem_cycles_optimized == row.optimized.run.mem_cycles &&
        r.energy_original_nj == row.original.energy.total_nj() &&
        r.energy_optimized_nj == row.optimized.energy.total_nj() &&
        r.prefetches == row.report.insertions.size() &&
        r.program_text == ir::to_text(optimized);
    if (!same) ++pipeline_mismatches;
  }
  if (pipeline_mismatches)
    report.fail(std::to_string(pipeline_mismatches) +
                " fresh cases differ between the server and the traced "
                "pipeline");
  report.notes.push_back(
      "traced pass responses equal untraced responses: " +
      std::string(differing == 0 && pipeline_mismatches == 0 ? "yes" : "NO"));

  // Traced pass 3: the request journal's own calls on the served responses.
  const std::string replay_journal = args.work_dir + "/serve-replay.journal";
  std::filesystem::remove(replay_journal);
  {
    serve::RequestJournal rj;
    {
      Tracer::Scope s(&tracer, span::kRequestJournalOpen);
      const Status opened = rj.open(replay_journal);
      if (!opened.ok()) report.fail("request journal: " + opened.message());
    }
    std::size_t bad_find = 0;
    for (std::size_t i = 0; i < list.items.size(); ++i) {
      const Planned& item = list.items[i];
      const std::string fp =
          serve::request_fingerprint(full_request(list, item));
      const Answer& a = traced_answers[i];
      if (item.kind == Kind::kResend) {
        const serve::RequestJournal::Entry* entry = nullptr;
        {
          Tracer::Scope s(&tracer, span::kRequestJournalFind);
          entry = rj.find(item.request.id);
        }
        if (!entry || entry->fingerprint != fp ||
            fnv1a(entry->response_text) != a.first_served)
          ++bad_find;
        continue;
      }
      // What the server journaled for this id: the fresh reply itself, or
      // for a repeat its fresh target's reply under the repeat's id.
      serve::Response stored =
          item.kind == Kind::kFresh
              ? a.response
              : traced_answers[static_cast<std::size_t>(item.refers_to)]
                    .response;
      stored.id = item.request.id;
      stored.cached = item.kind == Kind::kRepeat;
      const std::string bytes = serve::serialize_response(stored);
      if (fnv1a(bytes) != a.wire) ++bad_find;
      Tracer::Scope s(&tracer, span::kRequestJournalAppend);
      const Status appended = rj.append(item.request.id, fp, bytes);
      if (!appended.ok()) report.fail("journal append: " + appended.message());
    }
    if (bad_find)
      report.fail(std::to_string(bad_find) +
                  " journal rows or lookups differ from the served replies");
  }
  std::filesystem::remove(replay_journal);
  const double dark = tracer.dark_pct(traced_start, Tracer::now_ns());
  end_counting();

  report_pipeline_layers(tracer, report);
  const double answered_traced = static_cast<double>(traced_outcome.answered);
  report.metric("serve.miss_ms", traced_outcome.miss_ms.mean(), "ms");
  report.metric("serve.hit_ms", traced_outcome.hit_ms.mean(), "ms");
  report.metric("serve.hit_ratio",
                answered_traced > 0
                    ? static_cast<double>(traced_outcome.hit_ms.size()) /
                          answered_traced
                    : 0.0,
                "ratio");
  report.metric("serve.replayed", static_cast<double>(traced_stats.replayed),
                "count");
  report.metric("serve.shed", static_cast<double>(traced_stats.shed), "count");
  report.metric("serve.retried", static_cast<double>(traced_stats.retried),
                "count");
  report.metric("serve.watchdog_fires",
                static_cast<double>(traced_stats.watchdog_fires), "count");
  report.metric("serve.queue_depth_peak", queue_peak, "count");
  report.metric("serve.journal_append_ms",
                tracer.total_ms(span::kRequestJournalAppend), "ms");
  report_run_layer(dark, traced_s, wall_s, report);
  tracer.write_chrome_trace(args.work_dir + "/serve.trace.json");
  return report;
}

}  // namespace ucpbench
