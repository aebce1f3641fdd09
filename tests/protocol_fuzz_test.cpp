// Deterministic mutation fuzzing of the advice-server wire protocol
// (server/protocol.hpp), the parser that faces untrusted socket input.
//
// Valid request and response frames are mutated with bit flips, byte
// overwrites, truncations, extensions and length-field edits from a fixed
// seed. Every mutant goes through the same path the server and client take
// — check_frame_header on the first 8 bytes, then the payload decoder — and
// must either decode or throw: ProtocolError for any framing/encoding
// violation, std::runtime_error only for a well-formed error response.
// Nothing may crash, hang, or throw anything else; under the ASan/UBSan
// build this also proves every read stays in bounds. Whatever decodes must
// re-encode to a frame that decodes to the same bytes again.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.hpp"

namespace {

using hp::server::AdviceRequest;
using hp::server::AdviceResponse;
using hp::server::ProtocolError;
using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t kSeed = 0x48505a5a;  // fixed: the run is reproducible
constexpr int kMutantsPerFrame = 3000;

std::vector<Bytes> request_frames() {
    std::vector<AdviceRequest> requests = {
        {"paper_64core", {}, {}},
        {"paper_16core", {4.5}, {}},
        {"paper_256core", {1.0, 2.0, 3.5, 6.0}, {0.5e-3, 1e-3, 2e-3}},
        {"", {0.0, 0.0}, {1e-3}},
        {std::string(40, 'x'), std::vector<double>(33, 2.25), {}},
    };
    std::vector<Bytes> frames;
    for (const AdviceRequest& r : requests) {
        Bytes frame;
        hp::server::encode_request(r, frame);
        frames.push_back(frame);
    }
    return frames;
}

std::vector<Bytes> response_frames() {
    AdviceResponse small;
    small.rotation_on = 1;
    small.thermally_safe = 1;
    small.tau_s = 1e-3;
    small.predicted_peak_c = 68.5;
    small.error_bound_c = 0.25;
    small.core_of_thread = {0, 5, 10};
    small.peak_core_c = std::vector<double>(16, 61.0);
    AdviceResponse empty;
    std::vector<Bytes> frames(3);
    hp::server::encode_response(small, frames[0]);
    hp::server::encode_response(empty, frames[1]);
    hp::server::encode_error_response("advise: thread power must be finite",
                                      frames[2]);
    return frames;
}

/// One random mutation of @p frame.
void mutate(Bytes& frame, std::mt19937_64& rng) {
    const auto below = [&](std::size_t n) {
        return n == 0 ? std::size_t{0}
                      : static_cast<std::size_t>(rng() % n);
    };
    switch (rng() % 6) {
        case 0:  // bit flips
            for (int i = 0, n = 1 + int(rng() % 4); i < n && !frame.empty();
                 ++i)
                frame[below(frame.size())] ^=
                    static_cast<std::uint8_t>(1u << (rng() % 8));
            break;
        case 1:  // byte overwrites
            for (int i = 0, n = 1 + int(rng() % 4); i < n && !frame.empty();
                 ++i)
                frame[below(frame.size())] = static_cast<std::uint8_t>(rng());
            break;
        case 2:  // truncation
            frame.resize(below(frame.size()));
            break;
        case 3:  // extension with random bytes
            for (int i = 0, n = 1 + int(rng() % 16); i < n; ++i)
                frame.push_back(static_cast<std::uint8_t>(rng()));
            break;
        case 4: {  // frame length field edit
            static const std::uint32_t kLengths[] = {
                0u, 1u, 7u, 0x7fffffffu, 0xffffffffu,
                hp::server::kMaxPayloadBytes, hp::server::kMaxPayloadBytes + 1};
            // An edge value, or the true payload length off by -4..+4.
            const std::uint32_t len =
                rng() % 2 ? kLengths[below(std::size(kLengths))]
                          : static_cast<std::uint32_t>(frame.size() +
                                                       below(9)) - 12u;
            if (frame.size() >= 8) std::memcpy(frame.data() + 4, &len, 4);
            break;
        }
        default: {  // inner count/length field edit at a random offset
            static const std::uint32_t kCounts[] = {
                0u, 1u, 2u, 255u, 256u, 257u, 1024u, 1025u,
                hp::server::kMaxThreads, hp::server::kMaxThreads + 1,
                0xffffffffu};
            if (frame.size() < 12) break;
            const std::size_t at = 8 + below(frame.size() - 11);
            const std::uint32_t count = kCounts[below(std::size(kCounts))];
            if (rng() % 2) {
                std::memcpy(frame.data() + at, &count, 4);
            } else {
                const std::uint16_t c16 = static_cast<std::uint16_t>(count);
                std::memcpy(frame.data() + at, &c16, 2);
            }
            break;
        }
    }
}

/// Payload bytes a reader would hand the decoder: everything after the
/// header, cut at the header's length when the frame holds that much.
std::pair<const std::uint8_t*, std::size_t> payload_of(const Bytes& frame,
                                                       std::uint32_t len) {
    const std::size_t have = frame.size() - 8;
    return {frame.data() + 8, len < have ? len : have};
}

enum class Outcome { kDecoded, kProtocolError, kErrorResponse };

Outcome feed_request(const Bytes& frame) {
    if (frame.size() < 8) return Outcome::kProtocolError;  // reader waits
    try {
        const std::uint32_t len = hp::server::check_frame_header(
            frame.data(), hp::server::kRequestMagic);
        const auto [data, size] = payload_of(frame, len);
        const AdviceRequest request = hp::server::decode_request(data, size);
        Bytes again;
        hp::server::encode_request(request, again);
        const AdviceRequest round =
            hp::server::decode_request(again.data() + 8, again.size() - 8);
        Bytes third;
        hp::server::encode_request(round, third);
        EXPECT_EQ(again, third) << "decoded request does not round-trip";
        return Outcome::kDecoded;
    } catch (const ProtocolError& e) {
        EXPECT_NE(std::string(e.what()).find("protocol.cpp:"),
                  std::string::npos)
            << e.what();
        return Outcome::kProtocolError;
    }
}

Outcome feed_response(const Bytes& frame) {
    if (frame.size() < 8) return Outcome::kProtocolError;
    try {
        const std::uint32_t len = hp::server::check_frame_header(
            frame.data(), hp::server::kResponseMagic);
        const auto [data, size] = payload_of(frame, len);
        std::string error;
        const AdviceResponse response =
            hp::server::decode_response(data, size, &error);
        if (size > 0 && data[0] == 1) {
            // The same payload without an error sink must throw the plain
            // runtime_error carrying the message.
            try {
                (void)hp::server::decode_response(data, size);
                ADD_FAILURE() << "error response decoded without throwing";
            } catch (const ProtocolError&) {
                ADD_FAILURE() << "error response threw ProtocolError";
            } catch (const std::runtime_error&) {
            }
            return Outcome::kErrorResponse;
        }
        Bytes again;
        hp::server::encode_response(response, again);
        const AdviceResponse round =
            hp::server::decode_response(again.data() + 8, again.size() - 8);
        Bytes third;
        hp::server::encode_response(round, third);
        EXPECT_EQ(again, third) << "decoded response does not round-trip";
        return Outcome::kDecoded;
    } catch (const ProtocolError&) {
        return Outcome::kProtocolError;
    }
}

TEST(ProtocolFuzz, MutatedRequestsDecodeOrThrowProtocolError) {
    std::mt19937_64 rng(kSeed);
    std::size_t decoded = 0, rejected = 0;
    for (const Bytes& valid : request_frames()) {
        ASSERT_EQ(feed_request(valid), Outcome::kDecoded);
        for (int i = 0; i < kMutantsPerFrame; ++i) {
            Bytes frame = valid;
            for (int k = 0, n = 1 + int(rng() % 3); k < n; ++k)
                mutate(frame, rng);
            // Anything but ProtocolError escapes and fails the test.
            (feed_request(frame) == Outcome::kDecoded ? decoded : rejected)++;
        }
    }
    // The mutator must exercise both sides of the parser.
    EXPECT_GT(decoded, 100u);
    EXPECT_GT(rejected, 1000u);
}

TEST(ProtocolFuzz, MutatedResponsesDecodeOrThrow) {
    std::mt19937_64 rng(kSeed + 1);
    std::size_t decoded = 0, errors = 0, rejected = 0;
    for (const Bytes& valid : response_frames()) {
        ASSERT_NE(feed_response(valid), Outcome::kProtocolError);
        for (int i = 0; i < kMutantsPerFrame; ++i) {
            Bytes frame = valid;
            for (int k = 0, n = 1 + int(rng() % 3); k < n; ++k)
                mutate(frame, rng);
            switch (feed_response(frame)) {
                case Outcome::kDecoded: ++decoded; break;
                case Outcome::kErrorResponse: ++errors; break;
                case Outcome::kProtocolError: ++rejected; break;
            }
        }
    }
    EXPECT_GT(decoded, 100u);
    EXPECT_GT(errors, 10u);
    EXPECT_GT(rejected, 1000u);
}

TEST(ProtocolFuzz, RandomBytesNeverCrashTheDecoders) {
    std::mt19937_64 rng(kSeed + 2);
    for (int i = 0; i < 4000; ++i) {
        Bytes payload(rng() % 64);
        for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng());
        try {
            (void)hp::server::decode_request(payload.data(), payload.size());
        } catch (const ProtocolError&) {
        }
        try {
            std::string error;
            (void)hp::server::decode_response(payload.data(), payload.size(),
                                              &error);
        } catch (const ProtocolError&) {
        }
    }
}

}  // namespace
