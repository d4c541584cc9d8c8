// Kill/resume and supervision integration tests for the journaled sweep
// runtime: a sweep hard-killed (SIGKILL) mid-append resumes from the last
// durable row and reproduces the uninterrupted result set bit-identically;
// torn tails and stale checkpoints are truncated or reset, never trusted;
// a journal write failure disables checkpointing but not the sweep; the
// retry ladder recovers supervisor cancellations; an auditor violation
// quarantines deterministically; and only a sweep that computed rows
// annotates its journal, so a pure restore leaves it byte-identical. The same record-log guarantees are pinned
// for the daemon's request journal and the fuzz campaign journal: a foreign
// file is refused untouched, a write failure closes the log with a note
// (for the campaign journal also when the caller arms the fault around a
// whole campaign), and a kill mid-append keeps every earlier row.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "energy/model.hpp"
#include "exp/harness.hpp"
#include "exp/journal.hpp"
#include "fuzz/campaign.hpp"
#include "obs/metrics.hpp"
#include "serve/request_journal.hpp"
#include "support/fault_injection.hpp"

namespace ucp::exp {
namespace {

/// Same small deterministic grid as the fault suite: fdct reaches the
/// optimizer's candidate walk, bs covers the no-candidate path; one thread
/// so the first journal append (and the first fault hit) is deterministic.
SweepOptions journaled_sweep(const std::string& journal) {
  SweepOptions options;
  options.programs = {"bs", "fdct"};
  options.config_stride = 12;  // k1, k13, k25
  options.techs = {energy::TechNode::k45nm};
  options.threads = 1;
  options.progress_every = 0;
  options.journal_path = journal;
  return options;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name + "." + std::to_string(::getpid())) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Opens a sweep journal for the journaled_sweep grid (no rows restored).
Status open_sweep_journal(SweepJournal& journal, const std::string& path) {
  std::vector<UseCaseResult> rows(6);
  std::vector<bool> have(rows.size(), false);
  return journal.open(path, sweep_grid_fingerprint(), "selection", 0, 1,
                      rows, have,
                      [](std::size_t, const UseCaseResult&) { return false; });
}

fuzz::CampaignOptions tiny_campaign(const std::string& journal) {
  fuzz::CampaignOptions options;
  options.cases = 3;
  options.shrink = false;
  options.journal_path = journal;
  return options;
}

std::string reference_fingerprint() {
  fault::disarm_all();
  const Sweep sweep = run_sweep(journaled_sweep(""));
  EXPECT_TRUE(sweep.report.clean());
  return sweep_results_fingerprint(sweep.results);
}

TEST(Recovery, KillDuringJournalAppendResumesBitIdentical) {
  TempFile journal("recovery_kill_journal");
  const std::string want = reference_fingerprint();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: the second journal append writes a torn record (the full row
    // minus its tail), fsyncs it, and dies by raise(SIGKILL) — the closest
    // reproducible stand-in for a power cut mid-checkpoint.
    fault::arm("io.journal_kill", /*skip=*/1);
    run_sweep(journaled_sweep(journal.path));
    std::_Exit(42);  // only reached if the fault never fired
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited normally; the kill fault did not fire";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Resume in this (never-armed) process: the torn tail is truncated, the
  // durable rows are reused, only the missing rows are recomputed — and the
  // combined result set is bit-identical to the uninterrupted run.
  const Sweep resumed = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_GT(resumed.report.resumed_rows, 0u);
  EXPECT_LT(resumed.report.resumed_rows, resumed.report.total);
  EXPECT_EQ(sweep_results_fingerprint(resumed.results), want);
}

TEST(Recovery, TornTailIsTruncatedAndRecomputed) {
  TempFile journal("recovery_torn_journal");
  fault::disarm_all();
  const Sweep first = run_sweep(journaled_sweep(journal.path));
  ASSERT_TRUE(first.report.clean());
  const std::string want = sweep_results_fingerprint(first.results);

  // Chop the file mid-record, as a crash between write and fsync would.
  std::ifstream in(journal.path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(contents.size(), 32u);
  std::ofstream out(journal.path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - 9));
  out.close();

  const Sweep resumed = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_GT(resumed.report.resumed_rows, 0u);
  EXPECT_LT(resumed.report.resumed_rows, resumed.report.total);
  EXPECT_EQ(sweep_results_fingerprint(resumed.results), want);
}

TEST(Recovery, CompleteJournalResumesEveryRow) {
  TempFile journal("recovery_full_journal");
  fault::disarm_all();
  const Sweep first = run_sweep(journaled_sweep(journal.path));
  ASSERT_TRUE(first.report.clean());

  const Sweep resumed = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_EQ(resumed.report.resumed_rows, resumed.report.total);
  EXPECT_EQ(sweep_results_fingerprint(resumed.results),
            sweep_results_fingerprint(first.results));
}

std::size_t metrics_annotations(const std::string& contents) {
  std::size_t n = 0;
  for (std::size_t at = 0; at < contents.size();) {
    if (contents.compare(at, 10, "# metrics ") == 0) ++n;
    const std::size_t eol = contents.find('\n', at);
    if (eol == std::string::npos) break;
    at = eol + 1;
  }
  return n;
}

TEST(Recovery, MetricsAnnotationOnlyWhenRowsWereComputed) {
  TempFile journal("recovery_metrics_journal");
  fault::disarm_all();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  ASSERT_TRUE(run_sweep(journaled_sweep(journal.path)).report.clean());
  const std::string complete = read_file(journal.path);
  EXPECT_EQ(metrics_annotations(complete), 1u);

  // A pure restore computes nothing and leaves the journal byte-identical.
  const Sweep restored = run_sweep(journaled_sweep(journal.path));
  EXPECT_EQ(restored.report.resumed_rows, restored.report.total);
  EXPECT_EQ(read_file(journal.path), complete);

  // Drop the first row (the line after the header): the resume recomputes
  // that one task and appends its row plus exactly one annotation.
  const std::size_t row_start = complete.find('\n') + 1;
  const std::size_t row_end = complete.find('\n', row_start) + 1;
  ASSERT_EQ(complete.compare(row_start, 4, "row,"), 0);
  std::string holed = complete;
  holed.erase(row_start, row_end - row_start);
  std::ofstream(journal.path, std::ios::binary | std::ios::trunc) << holed;
  const Sweep resumed = run_sweep(journaled_sweep(journal.path));
  obs::set_enabled(was_enabled);
  EXPECT_TRUE(resumed.report.clean());
  EXPECT_EQ(resumed.report.resumed_rows + 1, resumed.report.total);
  EXPECT_EQ(metrics_annotations(read_file(journal.path)), 2u);
}

TEST(Recovery, StaleSelectionFingerprintResetsJournal) {
  TempFile journal("recovery_stale_journal");
  fault::disarm_all();
  SweepOptions narrow = journaled_sweep(journal.path);
  narrow.programs = {"bs"};
  ASSERT_TRUE(run_sweep(narrow).report.clean());

  // A different program selection changes the selection fingerprint: the
  // old checkpoint is worthless and must be reset, not reinterpreted.
  const Sweep second = run_sweep(journaled_sweep(journal.path));
  EXPECT_TRUE(second.report.clean());
  EXPECT_EQ(second.report.resumed_rows, 0u);
  EXPECT_NE(second.report.journal_note.find("reset"), std::string::npos)
      << second.report.journal_note;
}

TEST(Recovery, JournalWriteFaultDisablesJournalNotTheSweep) {
  TempFile journal("recovery_wfault_journal");
  const std::string want = reference_fingerprint();

  fault::arm("io.journal_write");
  const Sweep sweep = run_sweep(journaled_sweep(journal.path));
  fault::disarm_all();

  // Checkpointing stops, the sweep (and its results) do not.
  EXPECT_TRUE(sweep.report.clean());
  EXPECT_EQ(sweep_results_fingerprint(sweep.results), want);
  EXPECT_NE(sweep.report.journal_note.find("disabled"), std::string::npos)
      << sweep.report.journal_note;
}

TEST(Recovery, JournalsRefuseForeignFilesAndLeaveThemUntouched) {
  fault::disarm_all();
  TempFile foreign("recovery_foreign_notes");
  const std::string notes = "meeting notes\nnot a journal, keep me\n";
  std::ofstream(foreign.path, std::ios::binary) << notes;

  SweepJournal sweep_journal;
  const Status sweep_opened = open_sweep_journal(sweep_journal, foreign.path);
  EXPECT_FALSE(sweep_opened.ok());
  EXPECT_FALSE(sweep_journal.active());
  EXPECT_EQ(read_file(foreign.path), notes);

  // The sweep itself runs on, unjournaled, and says so.
  const Sweep sweep = run_sweep(journaled_sweep(foreign.path));
  EXPECT_TRUE(sweep.report.clean());
  EXPECT_NE(sweep.report.journal_note.find("disabled"), std::string::npos)
      << sweep.report.journal_note;
  EXPECT_EQ(read_file(foreign.path), notes);

  serve::RequestJournal request_journal;
  EXPECT_FALSE(request_journal.open(foreign.path).ok());
  EXPECT_FALSE(request_journal.active());
  EXPECT_EQ(read_file(foreign.path), notes);

  std::vector<fuzz::CaseVerdict> resumed;
  fuzz::CampaignJournal campaign_journal;
  EXPECT_FALSE(campaign_journal
                   .open(foreign.path, tiny_campaign(foreign.path), resumed)
                   .ok());
  EXPECT_FALSE(campaign_journal.active());
  const fuzz::CampaignResult campaign =
      fuzz::run_campaign(tiny_campaign(foreign.path));
  EXPECT_EQ(campaign.verdicts.size(), 3u);
  EXPECT_NE(campaign.journal_note.find("disabled"), std::string::npos)
      << campaign.journal_note;
  EXPECT_EQ(read_file(foreign.path), notes);
}

TEST(Recovery, WriteFaultClosesEveryJournalWithANote) {
  fault::disarm_all();
  std::vector<UseCaseResult> rows(1);
  rows[0].program = "bs";
  rows[0].config_id = "k1";

  TempFile sweep_path("recovery_close_sweep");
  SweepJournal sweep_journal;
  ASSERT_TRUE(open_sweep_journal(sweep_journal, sweep_path.path).ok());
  {
    fault::ScopedFault fault("io.journal_write");
    EXPECT_FALSE(sweep_journal.append(rows, 0, 1).ok());
  }
  EXPECT_FALSE(sweep_journal.active());
  EXPECT_NE(sweep_journal.note().find("disabled"), std::string::npos)
      << sweep_journal.note();

  TempFile request_path("recovery_close_request");
  serve::RequestJournal request_journal;
  ASSERT_TRUE(request_journal.open(request_path.path).ok());
  {
    fault::ScopedFault fault("io.journal_write");
    EXPECT_FALSE(request_journal.append("id-1", std::string(16, 'a'), "r")
                     .ok());
  }
  EXPECT_FALSE(request_journal.active());
  EXPECT_EQ(request_journal.find("id-1"), nullptr);
  EXPECT_NE(request_journal.note().find("disabled"), std::string::npos)
      << request_journal.note();

  TempFile campaign_path("recovery_close_campaign");
  std::vector<fuzz::CaseVerdict> resumed;
  fuzz::CampaignJournal campaign_journal;
  ASSERT_TRUE(campaign_journal
                  .open(campaign_path.path, tiny_campaign(campaign_path.path),
                        resumed)
                  .ok());
  {
    fault::ScopedFault fault("io.journal_write");
    EXPECT_FALSE(campaign_journal.append(fuzz::CaseVerdict{}).ok());
  }
  EXPECT_FALSE(campaign_journal.active());
  EXPECT_NE(campaign_journal.note().find("disabled"), std::string::npos)
      << campaign_journal.note();
}

TEST(Recovery, CallerArmedWriteFaultReachesTheCampaignJournal) {
  // A site the caller armed for the whole campaign outlives the cases (which
  // disarm only the sites they arm themselves), so the first journal append
  // fails and the campaign journal closes with a note; the cases still run.
  fault::disarm_all();
  TempFile journal("recovery_campaign_wfault");
  fault::arm("io.journal_write");
  const fuzz::CampaignResult campaign =
      fuzz::run_campaign(tiny_campaign(journal.path));
  fault::disarm_all();
  EXPECT_EQ(campaign.verdicts.size(), 3u);
  EXPECT_NE(campaign.journal_note.find("journaling disabled"),
            std::string::npos)
      << campaign.journal_note;
}

TEST(Recovery, RequestJournalKillMidAppendKeepsEarlierResponses) {
  fault::disarm_all();
  TempFile journal("recovery_kill_request_journal");
  const std::string fp(16, 'f');

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    serve::RequestJournal rj;
    if (!rj.open(journal.path).ok() || !rj.append("done", fp, "ok 1").ok())
      std::_Exit(41);
    fault::arm("io.journal_kill");
    rj.append("torn", fp, "ok 2");
    std::_Exit(42);  // only reached if the fault never fired
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited with " << WEXITSTATUS(wstatus);
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  serve::RequestJournal rj;
  ASSERT_TRUE(rj.open(journal.path).ok());
  EXPECT_EQ(rj.restored(), 1u);
  ASSERT_NE(rj.find("done"), nullptr);
  EXPECT_EQ(rj.find("done")->response_text, "ok 1");
  EXPECT_EQ(rj.find("torn"), nullptr);
  EXPECT_NE(rj.note().find("torn tail truncated"), std::string::npos)
      << rj.note();

  // The re-run request appends after the cut and replays on restart.
  ASSERT_TRUE(rj.append("torn", fp, "ok 2").ok());
  rj.close();
  serve::RequestJournal again;
  ASSERT_TRUE(again.open(journal.path).ok());
  EXPECT_EQ(again.restored(), 2u);
  ASSERT_NE(again.find("torn"), nullptr);
  EXPECT_EQ(again.find("torn")->response_text, "ok 2");
}

TEST(Recovery, LadderRecoversFromSupervisorCancellation) {
  const std::string want = reference_fingerprint();

  SweepOptions supervised = journaled_sweep("");
  supervised.max_attempts = 3;
  fault::arm("supervisor.cancel");
  const Sweep sweep = run_sweep(supervised);
  fault::disarm_all();

  // The cancelled first attempt is retried with a fresh token and recovers
  // cleanly; a recovered row is flagged (attempts, degradation_level) but
  // carries the same metrics as an unfaulted run.
  EXPECT_TRUE(sweep.report.clean());
  EXPECT_GE(sweep.report.retried, 1u);
  EXPECT_GE(sweep.report.recovered, 1u);
  EXPECT_EQ(sweep_results_fingerprint(sweep.results), want);
  for (const UseCaseResult& r : sweep.results) {
    if (r.attempts <= 1) continue;
    EXPECT_EQ(r.degradation_level, 1u);
    EXPECT_EQ(r.outcome, CaseOutcome::kCompleted);
  }
}

TEST(Recovery, InjectedAuditMismatchQuarantinesDeterministically) {
  const SweepOptions options = journaled_sweep("");
  fault::disarm_all();
  fault::arm("audit.mismatch");
  const Sweep a = run_sweep(options);
  fault::arm("audit.mismatch");
  const Sweep b = run_sweep(options);
  fault::disarm_all();

  // Exactly one case (the first audited one — single-threaded, one-shot
  // fault) is demoted to a quarantined degraded row shipping the original
  // binary, and the demotion is deterministic across runs.
  ASSERT_FALSE(a.report.clean());
  EXPECT_EQ(a.report.audit_violations, 1u);
  std::size_t demoted = 0;
  for (const UseCaseResult& r : a.results) {
    if (r.fail_code != ErrorCode::kAuditFailed) continue;
    ++demoted;
    EXPECT_EQ(r.outcome, CaseOutcome::kDegraded);
    EXPECT_EQ(r.fail_stage, "audit");
    EXPECT_TRUE(r.audit.violated);
    EXPECT_EQ(r.optimized.tau_wcet, r.original.tau_wcet);
    EXPECT_TRUE(r.report.insertions.empty());
  }
  EXPECT_EQ(demoted, 1u);
  EXPECT_EQ(sweep_results_fingerprint(a.results),
            sweep_results_fingerprint(b.results));
}

TEST(Recovery, JournalRowRoundTripsQuarantinedRows) {
  // The journal must reproduce quarantined rows exactly, or a resumed sweep
  // would silently launder a degraded case back to healthy-looking.
  fault::disarm_all();
  fault::arm("core.reanalyze");
  const Sweep sweep = run_sweep(journaled_sweep(""));
  fault::disarm_all();
  ASSERT_FALSE(sweep.report.clean());

  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const std::string line = SweepJournal::journal_row(sweep.results[i], i);
    std::size_t index = 0;
    UseCaseResult parsed;
    ASSERT_TRUE(SweepJournal::parse_journal_row(line, index, parsed))
        << line;
    EXPECT_EQ(index, i);
    EXPECT_EQ(sweep_cache_row(parsed), sweep_cache_row(sweep.results[i]));
    EXPECT_EQ(parsed.outcome, sweep.results[i].outcome);
    EXPECT_EQ(parsed.fail_code, sweep.results[i].fail_code);
    EXPECT_EQ(parsed.attempts, sweep.results[i].attempts);
    EXPECT_EQ(parsed.degradation_level, sweep.results[i].degradation_level);
  }
}

}  // namespace
}  // namespace ucp::exp
