#include "support/record_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/fault_injection.hpp"
#include "support/hash.hpp"

namespace ucp::support {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// fsync(2) the directory holding `path`, making the creation or rename of
/// its entry durable.
bool fsync_parent(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

/// The cell that ends a row: a comma and the body's 16-hex FNV-1a.
std::string checksum_cell(std::string_view body) {
  return ',' + hex16(fnv1a(body));
}

/// fflush + fsync; false on any failure.
bool sync(std::FILE* file) {
  return std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
}

/// One fwrite + fflush + fsync of `bytes`; false on any failure.
bool write_durably(std::FILE* file, const std::string& bytes) {
  return std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
         sync(file);
}

/// Writes `bodies` as rows into the stream piece by piece — never joined
/// into one buffer, so a batch of large rows (daemon responses) costs no
/// extra copy. The last `cut` bytes are left out, which tears the last row.
/// False when a write fails.
bool write_rows(std::FILE* file, const std::vector<std::string>& bodies,
                std::size_t cut = 0) {
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const std::string end = checksum_cell(bodies[i]) + '\n';
    const std::size_t keep =
        i + 1 < bodies.size() ? end.size() : end.size() - cut;
    if (std::fwrite(bodies[i].data(), 1, bodies[i].size(), file) !=
            bodies[i].size() ||
        std::fwrite(end.data(), 1, keep, file) != keep)
      return false;
  }
  return true;
}

}  // namespace

// --- RecordReader ------------------------------------------------------------

Status RecordReader::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    return Status(ErrorCode::kNotFound, "cannot read '" + path + "'");
  std::ostringstream contents;
  contents << is.rdbuf();
  bytes_ = std::move(contents).str();
  header_end_ = bytes_.find('\n');
  cursor_ = offset_ = has_header() ? header_end_ + 1 : bytes_.size();
  return Status::Ok();
}

std::string_view RecordReader::header() const {
  return std::string_view(bytes_).substr(
      0, has_header() ? header_end_ : bytes_.size());
}

RecordReader::Row RecordReader::next(std::string_view& body) {
  for (;;) {
    offset_ = cursor_;
    if (cursor_ >= bytes_.size()) return Row::kEnd;
    const std::size_t newline = bytes_.find('\n', cursor_);
    // A line without its newline is torn even when its checksum holds: the
    // next append would otherwise extend it into one corrupt line.
    if (newline == std::string::npos) return Row::kTorn;
    const std::string_view line =
        std::string_view(bytes_).substr(cursor_, newline - cursor_);
    cursor_ = newline + 1;
    if (line.empty() || line.front() == '#') continue;
    if (!RecordLog::unframe(line, body)) {
      cursor_ = offset_;
      return Row::kTorn;
    }
    return Row::kOk;
  }
}

// --- RecordLog ---------------------------------------------------------------

std::string RecordLog::frame(std::string_view body) {
  return std::string(body) + checksum_cell(body);
}

bool RecordLog::unframe(std::string_view line, std::string_view& body) {
  const std::size_t at = line.rfind(',');
  std::uint64_t checksum = 0;
  if (at == std::string_view::npos ||
      !parse_hex16(line.substr(at + 1), checksum) ||
      fnv1a(line.substr(0, at)) != checksum)
    return false;
  body = line.substr(0, at);
  return true;
}

Status RecordLog::open(const std::string& path, std::string_view magic,
                       const std::string& header, const Accept& accept) {
  UCP_CHECK_MSG(std::string_view(header).starts_with(magic),
                "record-log header must start with its magic");
  close();
  path_ = path;
  truncated_ = false;

  RecordReader reader;
  // Missing, empty, or killed while its header was being written: fresh.
  if (!reader.load(path).ok() ||
      (!reader.has_header() &&
       std::string_view(header).starts_with(reader.bytes()))) {
    start_ = Start::kCreated;
    return create(header);
  }
  if (!reader.header().starts_with(magic))
    return Status(ErrorCode::kMalformedInput,
                  "'" + path + "' is not a '" + std::string(magic) +
                      "' log; refusing to overwrite it");
  if (reader.header() != header) {
    start_ = Start::kReset;
    return create(header);
  }

  start_ = Start::kResumed;
  std::string_view body;
  RecordReader::Row row;
  while ((row = reader.next(body)) == RecordReader::Row::kOk && accept(body)) {
  }
  if (row != RecordReader::Row::kEnd) {
    // Everything before offset() checksummed clean and was accepted.
    truncated_ = true;
    if (::truncate(path.c_str(), static_cast<off_t>(reader.offset())) != 0)
      return Status(ErrorCode::kInternal, "cannot truncate the torn tail of '" +
                                              path + "': " + errno_text());
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (!file_)
    return Status(ErrorCode::kInternal, "cannot open '" + path +
                                            "' for append: " + errno_text());
  return Status::Ok();
}

Status RecordLog::create(const std::string& header) {
  file_ = std::fopen(path_.c_str(), "wb");
  if (!file_)
    return Status(ErrorCode::kInternal,
                  "cannot create '" + path_ + "': " + errno_text());
  if (!write_durably(file_, header + '\n'))
    return fail("cannot write the header: " + errno_text());
  if (!fsync_parent(path_))
    return fail("cannot fsync the parent directory: " + errno_text());
  return Status::Ok();
}

Status RecordLog::append(const std::vector<std::string>& bodies) {
  if (!active()) return Status(ErrorCode::kInternal, "log is not active");
  if (bodies.empty()) return Status::Ok();

  if (UCP_FAULT_POINT("io.journal_kill")) {
    // Simulated power loss mid-append: make the batch durable minus its
    // last 7 bytes (a torn checksum) and die without unwinding. Recovery
    // must truncate the torn tail on open and keep every row before it.
    write_rows(file_, bodies, 7);
    sync(file_);
    ::raise(SIGKILL);
  }
  if (UCP_FAULT_POINT("io.journal_write"))
    return fail("injected write failure");
  if (!write_rows(file_, bodies) || !sync(file_))
    return fail("append failed: " + errno_text());
  return Status::Ok();
}

Status RecordLog::annotate(std::string_view text) {
  if (!active()) return Status(ErrorCode::kInternal, "log is not active");
  // A newline would end the annotation early and leave the rest as a row
  // that fails its checksum; flatten them.
  std::string line = "# ";
  for (const char c : text) line += c == '\n' ? ' ' : c;
  line += '\n';
  if (!write_durably(file_, line))
    return fail("annotation failed: " + errno_text());
  return Status::Ok();
}

Status RecordLog::fail(const std::string& why) {
  close();
  return Status(ErrorCode::kInternal, "'" + path_ + "': " + why);
}

void RecordLog::close() {
  if (file_) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status RecordLog::publish(const std::string& path, const std::string& header,
                          const std::vector<std::string>& bodies) {
  // fsync the temp file *before* the rename (a rename can survive a crash
  // that loses the renamed file's bytes) and the directory after it.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (!file)
    return Status(ErrorCode::kInternal,
                  "cannot open '" + tmp + "' for writing: " + errno_text());
  const std::string first = header + '\n';
  const bool written =
      std::fwrite(first.data(), 1, first.size(), file) == first.size() &&
      write_rows(file, bodies) && sync(file);
  if (std::fclose(file) != 0 || !written) {
    std::remove(tmp.c_str());
    return Status(ErrorCode::kInternal, "write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(ErrorCode::kInternal,
                  "rename '" + tmp + "' -> '" + path + "' failed");
  }
  if (!fsync_parent(path))
    return Status(ErrorCode::kInternal,
                  "cannot fsync the directory of '" + path + "'");
  return Status::Ok();
}

// --- cell codec ---------------------------------------------------------------

std::string escape_cell(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case ',':
        out += "\\c";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string unescape_cell(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    const char next = s[++i];
    out += next == 'c' ? ',' : next == 'n' ? '\n' : next;
  }
  return out;
}

std::vector<std::string> split_cells(std::string_view body) {
  std::vector<std::string> cells(1);
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] == '\\' && i + 1 < body.size()) {
      cells.back() += body[i];
      cells.back() += body[++i];
    } else if (body[i] == ',') {
      cells.emplace_back();
    } else {
      cells.back() += body[i];
    }
  }
  return cells;
}

}  // namespace ucp::support
