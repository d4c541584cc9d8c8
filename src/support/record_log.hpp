#pragma once

// The durable append-only record log: the one file format and durability
// discipline under the sweep journal (exp/journal.hpp), the daemon's request
// journal (serve/request_journal.hpp) and the fuzz campaign journal
// (fuzz/campaign.hpp). Each owner supplies only its header line, its row
// codec and its row-acceptance rule; this file owns every byte of I/O.
//
// File format, one record per line:
//
//   <header>                 first line; starts with the owner's magic
//   <body>,<checksum>        a row: 16-hex FNV-1a of <body>
//   # <text>                 an annotation; skipped (and empty lines too)
//
// Durability and recovery:
//  - creating or resetting a log writes the header and fsyncs the file and
//    its parent directory (2 fsyncs);
//  - append() writes a whole batch of rows with one fwrite + fflush + fsync;
//  - any failed fwrite, fflush or fsync closes the log: the owner carries on
//    without checkpoints and reports it;
//  - open() keeps the longest prefix of rows that are newline-terminated,
//    pass their checksum and are accepted by the owner, and truncates the
//    file in place after it (a torn tail from a crash mid-append);
//  - a first line without the owner's magic is refused: open() returns an
//    error and leaves the file byte-for-byte unchanged. The same magic with
//    a different header resets the log (stale checkpoints are worthless,
//    not dangerous). An empty file, or a header torn mid-write, starts fresh.

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace ucp::support {

/// Read-only walk over a log file held in memory: the recovering open() and
/// strict readers (the sweep journal merge) share it.
class RecordReader {
 public:
  /// Loads the file at `path`; kNotFound when it cannot be read.
  Status load(const std::string& path);

  /// Whether the file starts with a complete ('\n'-terminated) first line.
  bool has_header() const { return header_end_ != std::string::npos; }
  /// The first line, without its newline (a torn first line if !has_header).
  std::string_view header() const;
  const std::string& bytes() const { return bytes_; }

  enum class Row { kOk, kTorn, kEnd };
  /// Advances to the next row, skipping annotations. kOk sets `body` to the
  /// row without its checksum; kTorn means the row at offset() lacks its
  /// newline or fails its checksum; kEnd means no rows remain.
  Row next(std::string_view& body);
  /// Byte offset of the row next() returned last (the file size at kEnd).
  std::size_t offset() const { return offset_; }

 private:
  std::string bytes_;
  std::size_t header_end_ = std::string::npos;
  std::size_t offset_ = 0;
  std::size_t cursor_ = 0;
};

class RecordLog {
 public:
  /// Decides whether one checksum-verified row body is kept. The first
  /// rejected row is truncated away together with everything after it.
  using Accept = std::function<bool(std::string_view body)>;

  /// How open() found the file.
  enum class Start { kCreated, kReset, kResumed };

  RecordLog() = default;
  ~RecordLog() { close(); }
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Opens (or creates) the log at `path` whose first line must be
  /// `header`, which starts with `magic`. On a resumed log, each row is
  /// offered to `accept` in file order. On success the log is active().
  Status open(const std::string& path, std::string_view magic,
              const std::string& header, const Accept& accept);

  /// Frames `bodies` as rows and makes them durable as one batch. Sits
  /// behind the io.journal_kill (torn write, then SIGKILL) and
  /// io.journal_write fault points. Any failure closes the log.
  Status append(const std::vector<std::string>& bodies);

  /// Appends `text` as a `# ` annotation line (newlines flattened) and
  /// makes it durable. Any failure closes the log.
  Status annotate(std::string_view text);

  bool active() const { return file_ != nullptr; }
  Start start() const { return start_; }
  /// Whether open() cut a torn or rejected tail off a resumed log.
  bool truncated() const { return truncated_; }
  void close();

  /// One row line (without newline): `<body>,<checksum>`.
  static std::string frame(std::string_view body);
  /// Inverse of frame(): false when `line` fails its checksum.
  static bool unframe(std::string_view line, std::string_view& body);

  /// Writes a complete log (header + framed `bodies`) to `path` atomically
  /// and durably: temp file, fsync, rename, fsync of the parent directory.
  static Status publish(const std::string& path, const std::string& header,
                        const std::vector<std::string>& bodies);

 private:
  Status create(const std::string& header);
  Status fail(const std::string& why);

  std::FILE* file_ = nullptr;
  std::string path_;
  Start start_ = Start::kCreated;
  bool truncated_ = false;
};

/// Cell codec for comma-separated row bodies: escape_cell() turns
/// backslash, comma and newline into `\\`, `\c` and `\n`, so a free-text
/// cell never splits its row; split_cells() splits on unescaped commas
/// (cells stay escaped); unescape_cell() inverts escape_cell().
std::string escape_cell(std::string_view s);
std::string unescape_cell(std::string_view s);
std::vector<std::string> split_cells(std::string_view body);

}  // namespace ucp::support
