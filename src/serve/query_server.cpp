#include "serve/query_server.hpp"

#include "serve/query_protocol.hpp"
#include "serve/recognition_service.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"

namespace siren::serve {

namespace {

/// Accepted connections beyond this are closed at once (counted).
constexpr std::size_t kMaxConnections = 256;

}  // namespace

QueryServer::QueryServer(RecognitionService& service, QueryServerOptions options)
    : service_(service),
      server_(options.bind_address, options.port, kMaxConnections,
              [this](net::TcpServer::Connection& conn, std::string_view payload) {
                  append_frame(conn.out, execute_with_stats(payload));
                  return true;
              }) {}

QueryServerStats QueryServer::stats() const {
    const net::TcpServerStats s = server_.stats();
    QueryServerStats out;
    out.connections = s.connections;
    out.rejected = s.rejected;
    out.requests = s.frames;
    out.protocol_errors = s.protocol_errors;
    out.accept_stalls = s.accept_stalls;
    return out;
}

std::string QueryServer::execute_with_stats(std::string_view payload) {
    std::string response = execute_query(service_, payload);
    // The service's STATS body is extended with the server-level view:
    // which SIMD tier the similarity scan dispatched to, and how often fd
    // exhaustion stalled the listener.
    if (util::trim(payload) == "STATS" && response.starts_with("OK\n")) {
        response += "simd_level ";
        response += util::simd::level_name(util::simd::active_level());
        response += "\naccept_stalls ";
        util::append_number(response, server_.stats().accept_stalls);
        response.push_back('\n');
    }
    return response;
}

}  // namespace siren::serve
