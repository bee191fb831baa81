// SHA-256 (FIPS 180-4), implemented from scratch so the library has no
// external crypto dependency. The paper's puzzle scheme (after Juels &
// Brainard) relies only on pre-image resistance of the hash; the Linux patch
// used the kernel's SHA-256, we use this one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.hpp"

namespace tcpz::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256. Usage: update() any number of times, then finalize().
/// After finalize() the object can be reset() and reused. Copyable: the hot
/// loops snapshot a partially-absorbed hash (HMAC midstates, the invariant
/// preimage‖index prefix of the puzzle solve loop) and fork per message.
class Sha256 {
 public:
  /// The eight working words — a resumable compression-function midstate.
  using State = std::array<std::uint32_t, 8>;

  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  [[nodiscard]] Sha256Digest finalize();

  /// One-shot convenience.
  [[nodiscard]] static Sha256Digest hash(std::span<const std::uint8_t> data);
  [[nodiscard]] static Sha256Digest hash(std::string_view s);

  /// The raw compression function: folds one 64-byte block into `state`.
  /// The keyed hot paths (HMAC midstates, the puzzle solution check) build
  /// fully-padded single blocks on the stack and call this directly,
  /// skipping the incremental buffering/finalization machinery.
  ///
  /// Runs the x86-64 SHA-extensions block function when the CPU has them
  /// (chosen once per process), else compress_portable(). Both produce the
  /// same bits; the choice only changes speed.
  static void compress(State& state, const std::uint8_t* block);

  using CompressFn = void (*)(State& state, const std::uint8_t* block);

  /// The portable scalar block function: the fallback on CPUs and
  /// architectures without SHA extensions, and the reference the hardware
  /// path is tested against.
  static void compress_portable(State& state, const std::uint8_t* block);

  /// The SHA-extensions block function, or nullptr when this CPU (or
  /// architecture) lacks it. compress() runs it whenever it is non-null.
  [[nodiscard]] static CompressFn compress_hardware();

  /// Fresh initial state (FIPS 180-4 H(0)), for direct compress() use.
  [[nodiscard]] static State initial_state();

  /// Serializes a compression state into the big-endian digest form.
  [[nodiscard]] static Sha256Digest state_to_digest(const State& state);

 private:
  friend class HmacKey;  // seeds state_/bit_count_ from cached midstates

  void process_block(const std::uint8_t* block) { compress(state_, block); }

  State state_{};
  std::uint64_t bit_count_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

/// Returns the first `bits` bits of `digest` packed into bytes, remaining
/// bits of the last byte zeroed. The puzzle scheme compares m-bit prefixes.
[[nodiscard]] Bytes prefix_bits(const Sha256Digest& digest, unsigned bits);

/// True iff the first `bits` bits of a and b agree.
[[nodiscard]] bool prefix_bits_equal(const Sha256Digest& a,
                                     const Sha256Digest& b, unsigned bits);

}  // namespace tcpz::crypto
