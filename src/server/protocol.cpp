#include "server/protocol.hpp"

#include <cstdio>
#include <cstring>

namespace hp::server {
namespace {

// Every protocol check funnels through this macro so the thrown message
// pins the exact invariant that failed — the server relays it to the
// offending client verbatim.
#define HP_PROTO_FAIL(msg)                                              \
    throw ProtocolError(std::string(__FILE__) + ":" +                   \
                        std::to_string(__LINE__) + ": " + (msg))

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
    out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    const std::size_t n = out.size();
    out.resize(n + sizeof v);
    std::memcpy(out.data() + n, &v, sizeof v);
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    const std::size_t n = out.size();
    out.resize(n + sizeof v);
    std::memcpy(out.data() + n, &v, sizeof v);
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
    const std::size_t n = out.size();
    out.resize(n + sizeof v);
    std::memcpy(out.data() + n, &v, sizeof v);
}

/// Bounds-checked read cursor over one frame payload.
class Cursor {
public:
    Cursor(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}

    std::uint8_t u8() {
        need(1, "u8");
        return data_[pos_++];
    }
    std::uint16_t u16() {
        need(2, "u16");
        std::uint16_t v;
        std::memcpy(&v, data_ + pos_, sizeof v);
        pos_ += sizeof v;
        return v;
    }
    std::uint32_t u32() {
        need(4, "u32");
        std::uint32_t v;
        std::memcpy(&v, data_ + pos_, sizeof v);
        pos_ += sizeof v;
        return v;
    }
    double f64() {
        need(8, "f64");
        double v;
        std::memcpy(&v, data_ + pos_, sizeof v);
        pos_ += sizeof v;
        return v;
    }
    std::string bytes(std::size_t n, const char* what) {
        need(n, what);
        std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
        return s;
    }
    void done() {
        if (pos_ != size_)
            HP_PROTO_FAIL("trailing garbage: payload has " +
                          std::to_string(size_ - pos_) +
                          " byte(s) past the last field");
    }
    /// Throws the truncation error unless @p n more bytes remain. Array
    /// decoders check the whole array before reserving for its untrusted
    /// count, so a short frame cannot make them allocate.
    void need(std::size_t n, const char* what) {
        if (size_ - pos_ < n)
            HP_PROTO_FAIL("truncated payload: need " + std::to_string(n) +
                          " byte(s) for " + what + " at offset " +
                          std::to_string(pos_) + " of " +
                          std::to_string(size_));
    }

private:
    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

void frame(std::vector<std::uint8_t>& out, std::uint32_t magic,
           std::size_t header_at) {
    const std::size_t payload = out.size() - header_at - 8;
    if (payload > kMaxPayloadBytes)
        HP_PROTO_FAIL("encoded payload exceeds kMaxPayloadBytes");
    const std::uint32_t len = static_cast<std::uint32_t>(payload);
    std::memcpy(out.data() + header_at, &magic, 4);
    std::memcpy(out.data() + header_at + 4, &len, 4);
}

std::size_t begin_frame(std::vector<std::uint8_t>& out) {
    const std::size_t at = out.size();
    out.resize(at + 8);  // patched by frame()
    return at;
}

}  // namespace

std::uint32_t check_frame_header(const std::uint8_t header[8],
                                 std::uint32_t expected_magic) {
    std::uint32_t magic, len;
    std::memcpy(&magic, header, 4);
    std::memcpy(&len, header + 4, 4);
    if (magic != expected_magic)
        HP_PROTO_FAIL("bad frame magic 0x" + [&] {
            char buf[16];
            std::snprintf(buf, sizeof buf, "%08x", magic);
            return std::string(buf);
        }());
    if (len > kMaxPayloadBytes)
        HP_PROTO_FAIL("frame payload length " + std::to_string(len) +
                      " exceeds cap " + std::to_string(kMaxPayloadBytes));
    return len;
}

void encode_request(const AdviceRequest& request,
                    std::vector<std::uint8_t>& out) {
    if (request.config.size() > kMaxConfigLen)
        HP_PROTO_FAIL("config tag longer than kMaxConfigLen");
    if (request.thread_power_w.size() > kMaxThreads)
        HP_PROTO_FAIL("thread count exceeds kMaxThreads");
    if (request.tau_grid_s.size() > kMaxTauGrid)
        HP_PROTO_FAIL("tau grid exceeds kMaxTauGrid");
    const std::size_t at = begin_frame(out);
    put_u16(out, static_cast<std::uint16_t>(request.config.size()));
    out.insert(out.end(), request.config.begin(), request.config.end());
    put_u32(out, static_cast<std::uint32_t>(request.thread_power_w.size()));
    for (double p : request.thread_power_w) put_f64(out, p);
    put_u32(out, static_cast<std::uint32_t>(request.tau_grid_s.size()));
    for (double t : request.tau_grid_s) put_f64(out, t);
    frame(out, kRequestMagic, at);
}

AdviceRequest decode_request(const std::uint8_t* payload, std::size_t size) {
    Cursor c(payload, size);
    AdviceRequest request;
    const std::uint16_t config_len = c.u16();
    if (config_len > kMaxConfigLen)
        HP_PROTO_FAIL("config tag length " + std::to_string(config_len) +
                      " exceeds cap " + std::to_string(kMaxConfigLen));
    request.config = c.bytes(config_len, "config tag");
    const std::uint32_t threads = c.u32();
    if (threads > kMaxThreads)
        HP_PROTO_FAIL("thread count " + std::to_string(threads) +
                      " exceeds cap " + std::to_string(kMaxThreads));
    c.need(std::size_t{threads} * 8, "thread powers");
    request.thread_power_w.reserve(threads);
    for (std::uint32_t i = 0; i < threads; ++i)
        request.thread_power_w.push_back(c.f64());
    const std::uint32_t taus = c.u32();
    if (taus > kMaxTauGrid)
        HP_PROTO_FAIL("tau grid size " + std::to_string(taus) +
                      " exceeds cap " + std::to_string(kMaxTauGrid));
    c.need(std::size_t{taus} * 8, "tau grid");
    request.tau_grid_s.reserve(taus);
    for (std::uint32_t i = 0; i < taus; ++i)
        request.tau_grid_s.push_back(c.f64());
    c.done();
    return request;
}

void encode_response(const AdviceResponse& response,
                     std::vector<std::uint8_t>& out) {
    const std::size_t at = begin_frame(out);
    put_u8(out, 0);  // status ok
    put_u8(out, response.rotation_on);
    put_u8(out, response.thermally_safe);
    put_f64(out, response.tau_s);
    put_f64(out, response.predicted_peak_c);
    put_f64(out, response.error_bound_c);
    put_u32(out, static_cast<std::uint32_t>(response.core_of_thread.size()));
    for (std::uint32_t core : response.core_of_thread) put_u32(out, core);
    put_u32(out, static_cast<std::uint32_t>(response.peak_core_c.size()));
    for (double t : response.peak_core_c) put_f64(out, t);
    frame(out, kResponseMagic, at);
}

void encode_error_response(const std::string& message,
                           std::vector<std::uint8_t>& out) {
    const std::size_t at = begin_frame(out);
    put_u8(out, 1);  // status error
    std::string clipped = message.substr(0, 4096);
    put_u32(out, static_cast<std::uint32_t>(clipped.size()));
    out.insert(out.end(), clipped.begin(), clipped.end());
    frame(out, kResponseMagic, at);
}

AdviceResponse decode_response(const std::uint8_t* payload, std::size_t size,
                               std::string* error_out) {
    Cursor c(payload, size);
    AdviceResponse response;
    const std::uint8_t status = c.u8();
    if (status == 1) {
        const std::uint32_t len = c.u32();
        std::string message = c.bytes(len, "error message");
        c.done();
        if (error_out) {
            *error_out = std::move(message);
            return response;
        }
        throw std::runtime_error("advice server error: " + message);
    }
    if (status != 0)
        HP_PROTO_FAIL("unknown response status " + std::to_string(status));
    if (error_out) error_out->clear();
    response.rotation_on = c.u8();
    response.thermally_safe = c.u8();
    response.tau_s = c.f64();
    response.predicted_peak_c = c.f64();
    response.error_bound_c = c.f64();
    const std::uint32_t threads = c.u32();
    if (threads > kMaxThreads)
        HP_PROTO_FAIL("response thread count exceeds cap");
    c.need(std::size_t{threads} * 4, "core assignment");
    response.core_of_thread.reserve(threads);
    for (std::uint32_t i = 0; i < threads; ++i)
        response.core_of_thread.push_back(c.u32());
    const std::uint32_t cores = c.u32();
    if (cores > kMaxThreads)
        HP_PROTO_FAIL("response core count exceeds cap");
    c.need(std::size_t{cores} * 8, "core peak map");
    response.peak_core_c.reserve(cores);
    for (std::uint32_t i = 0; i < cores; ++i)
        response.peak_core_c.push_back(c.f64());
    c.done();
    return response;
}

}  // namespace hp::server
