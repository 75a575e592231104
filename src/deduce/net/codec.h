#ifndef DEDUCE_NET_CODEC_H_
#define DEDUCE_NET_CODEC_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "deduce/common/statusor.h"
#include "deduce/datalog/fact.h"
#include "deduce/datalog/term.h"

namespace deduce {

/// Binary writer for message payloads. Every tuple that crosses a hop in
/// the simulator is really serialized through this codec, so the byte
/// counts the benchmarks report reflect actual wire sizes.
///
/// Encoding: varints (zigzag for signed), length-prefixed strings, tagged
/// terms. Symbols travel as strings (a deployment would negotiate a static
/// dictionary at compile time; string form is the conservative upper bound).
class PayloadWriter {
 public:
  PayloadWriter() = default;
  /// Writes into `buffer`, cleared: a buffer reused from frame to frame
  /// keeps its capacity, so it stops growing once it fits the largest.
  explicit PayloadWriter(std::vector<uint8_t> buffer)
      : buffer_(std::move(buffer)) {
    buffer_.clear();
  }

  void WriteUint(uint64_t v);
  void WriteInt(int64_t v);
  void WriteDouble(double v);
  void WriteBytes(std::string_view bytes);
  void WriteSymbol(SymbolId id);
  void WriteTerm(const Term& term);
  void WriteFact(const Fact& fact);
  void WriteTupleId(const TupleId& id);
  /// Each id as WriteInt writes it, in one run; no count.
  void WriteNodeIds(std::span<const NodeId> ids);

  const std::vector<uint8_t>& bytes() const { return buffer_; }
  std::vector<uint8_t> Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Binary reader; every Read* validates bounds and tags.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  PayloadReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  StatusOr<uint64_t> ReadUint();
  StatusOr<int64_t> ReadInt();
  StatusOr<double> ReadDouble();
  /// A length-prefixed byte string, as a view into the payload: valid
  /// while the payload is.
  StatusOr<std::string_view> ReadBytes();
  StatusOr<SymbolId> ReadSymbol();
  StatusOr<Term> ReadTerm();
  StatusOr<Fact> ReadFact();
  StatusOr<TupleId> ReadTupleId();
  /// Replaces `ids` with `n` ids written by WriteNodeIds. Accepts and
  /// rejects exactly what `n` ReadInt calls would, each cast to NodeId,
  /// with the same error.
  Status ReadNodeIds(size_t n, std::vector<NodeId>* ids);

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace deduce

#endif  // DEDUCE_NET_CODEC_H_
