// FNV-1a 64 fingerprints for golden tests: bytes, little-endian 64-bit
// integers and doubles' bits, so a value recorded from one build can pin
// the output of another.
#ifndef AER_TESTS_FNV_H_
#define AER_TESTS_FNV_H_

#include <bit>
#include <cstdint>
#include <string_view>

namespace aer {

class Fnv {
 public:
  void Bytes(std::string_view bytes) {
    for (const char c : bytes) Byte(static_cast<unsigned char>(c));
  }
  void Int(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<unsigned char>(static_cast<std::uint64_t>(v) >>
                                      (8 * i)));
    }
  }
  void Double(double v) { Int(std::bit_cast<std::int64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace aer

#endif  // AER_TESTS_FNV_H_
