#include "serve/request_journal.hpp"

#include <string_view>
#include <vector>

#include "support/fault_injection.hpp"

namespace ucp::serve {

namespace {

constexpr char kMagic[] = "# ucp-serve-journal v";
constexpr char kHeader[] = "# ucp-serve-journal v1";

std::string row_body(const std::string& id, const std::string& fingerprint,
                     const std::string& response_text) {
  return "req," + support::escape_cell(id) + "," + fingerprint + "," +
         support::escape_cell(response_text);
}

}  // namespace

Status RequestJournal::open(const std::string& path) {
  restored_ = 0;
  entries_.clear();
  const Status opened =
      log_.open(path, kMagic, kHeader, [&](std::string_view body) {
        const std::vector<std::string> cells = support::split_cells(body);
        if (cells.size() != 4 || cells[0] != "req") return false;
        std::string id = support::unescape_cell(cells[1]);
        if (id.empty() || cells[2].size() != 16) return false;
        // Later rows win: a duplicate id can only appear if a torn-tail
        // truncation re-ran the request, and the re-run's row is the one
        // that was acknowledged last.
        if (entries_
                .insert_or_assign(std::move(id),
                                  Entry{cells[2],
                                        support::unescape_cell(cells[3])})
                .second)
          ++restored_;
        return true;
      });
  if (!opened.ok()) {
    note_ = "journaling disabled: " + opened.message();
    return opened;
  }
  switch (log_.start()) {
    case support::RecordLog::Start::kCreated:
      note_ = "request journal started at '" + path + "'";
      break;
    case support::RecordLog::Start::kReset:
      note_ = "request journal reset (format version changed)";
      break;
    case support::RecordLog::Start::kResumed:
      note_ = "restored " + std::to_string(restored_) +
              " journaled responses from '" + path + "'" +
              (log_.truncated() ? " (torn tail truncated)" : "");
      break;
  }
  return Status::Ok();
}

Status RequestJournal::append(const std::string& id,
                              const std::string& fingerprint,
                              const std::string& response_text) {
  if (!active())
    return Status(ErrorCode::kInternal, "request journal is not active");
  // A daemon without replay durability beats no daemon: any failure
  // deactivates the journal and the daemon keeps serving.
  std::vector<std::string> rows;
  rows.push_back(row_body(id, fingerprint, response_text));
  Status appended =
      UCP_FAULT_POINT("serve.journal_write")
          ? Status(ErrorCode::kInternal,
                   "injected request-journal write failure")
          : log_.append(rows);
  if (!appended.ok()) {
    log_.close();
    note_ += "; journaling disabled: " + appended.message();
    return appended;
  }
  entries_.insert_or_assign(id, Entry{fingerprint, response_text});
  return Status::Ok();
}

const RequestJournal::Entry* RequestJournal::find(const std::string& id)
    const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace ucp::serve
