// SHA-256 for the reproduction manifest.
//
// The manifest records a digest per produced artifact so a reviewer (or
// the repro_test determinism check) can assert that two runs produced
// bit-identical files without keeping the files around. The driver
// hashes each artifact straight from disk (sha256_file_hex), so its
// memory does not grow with the trial count. FIPS 180-4, self-contained
// — no external crypto dependency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace emc::repro {

class Sha256 {
 public:
  Sha256();

  /// Feeding data after finalization aborts.
  void update(const void* data, std::size_t len);

  /// Finalize and return the digest as 64 lowercase hex characters.
  /// Idempotent: repeat calls return the same digest.
  std::string hex_digest();

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[8];
  std::uint64_t total_bytes_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
  std::string digest_;  // non-empty once finalized
};

/// One-shot digest of a byte string.
std::string sha256_hex(const std::string& bytes);

/// Digest of a file's contents, read in fixed-size blocks; empty string
/// if the file can't be read. When `bytes` is given, it receives the
/// number of bytes the digest covers.
std::string sha256_file_hex(const std::string& path,
                            std::uint64_t* bytes = nullptr);

}  // namespace emc::repro
