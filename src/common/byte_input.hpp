// The bytes of one input, fetched a range at a time: from a caller's
// buffer, or by pread from a regular file. The trace reader, the ELF
// reader and the TEMPEST_FILTER reader get their bytes only through
// this class, so each reads the ranges it parses, never a whole file
// it did not ask for, and every range is checked against the input's
// size before it is read.
//
// A path may come from a command line, an environment variable or a
// collector peer's trace metadata, so anything but a regular file — a
// FIFO that would block, a directory, a device that never ends — is
// refused unread with "<path>: not a regular file". The file is opened
// non-blocking, so not even open(2) waits on a FIFO's writer, and it is
// not mapped: a file cut while mapped would raise SIGBUS.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace tempest::common {

class ByteInput {
 public:
  /// Read `bytes`, which must outlive the input.
  explicit ByteInput(std::string_view bytes);
  /// Open `path` for pread. opened() is `cannot_open` when the path
  /// does not open, and "<path>: not a regular file" when it names
  /// anything but a regular file.
  ByteInput(const std::string& path, std::string cannot_open);
  /// A lone string is ambiguous (bytes, or a path?): pass a string_view
  /// for bytes, or a path with its open-failure text.
  explicit ByteInput(const std::string&) = delete;
  ~ByteInput();
  ByteInput(ByteInput&& other) noexcept;
  ByteInput(const ByteInput&) = delete;
  ByteInput& operator=(const ByteInput&) = delete;

  /// OK once the bytes are readable; why not, otherwise (size() is 0).
  const Status& opened() const { return opened_; }

  /// The input's size: the buffer's, or the file's when it was opened.
  std::uint64_t size() const { return size_; }

  /// Overflow-safe "does [offset, offset+size) fit inside the input?".
  /// `offset + size > size()` alone wraps for hostile 64-bit values.
  bool contains(std::uint64_t offset, std::uint64_t size) const {
    return offset <= size_ && size <= size_ - offset;
  }

  /// Copy [offset, offset+size) into `dst`. A range outside the input
  /// is an error, and so is a file that ends before the range does (it
  /// shrank after it was opened).
  Status read(std::uint64_t offset, std::uint64_t size, void* dst) const;

 private:
  const char* memory_ = nullptr;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  Status opened_;
};

}  // namespace tempest::common
