/**
 * @file
 * Wire protocol of the `gables serve` evaluation daemon.
 *
 * The protocol is newline-delimited JSON: each request is one JSON
 * object on one line, each response is one JSON object on one line,
 * in request order. Requests carry an "op" (ping / eval / sweep /
 * explore / advise / stats / shutdown) and an optional "id" echoed
 * back verbatim so pipelined clients can match responses.
 *
 * Responses are either
 *
 *   {"id": ..., "ok": true, "result": {...}}
 *
 * or
 *
 *   {"id": ..., "ok": false,
 *    "error": {"code": C, "kind": K, "message": M}}
 *
 * where "code" follows the CLI exit-code contract (docs/ERRORS.md):
 * 1 for evaluation/config errors and expired deadlines, 2 for
 * malformed or unintelligible requests. "kind" is a stable
 * machine-readable discriminator; "message" is the same located
 * diagnostic the CLI prints.
 */

#ifndef GABLES_SERVE_PROTOCOL_H
#define GABLES_SERVE_PROTOCOL_H

#include <string>

namespace gables {

class JsonValue;

namespace serve {

/** Machine-readable error discriminators. */
enum class ErrorKind {
    /** Malformed JSON, missing/unknown op, bad field types (code 2). */
    BadRequest,
    /** Invalid model input: SocSpec/Usecase/config errors (code 1). */
    Config,
    /** The request's deadline expired before completion (code 1). */
    Deadline,
    /** Unexpected server-side failure (code 1). */
    Internal,
};

/** @return The stable wire string for @p kind ("bad-request", ...). */
std::string toString(ErrorKind kind);

/** @return The CLI-contract numeric code for @p kind (1 or 2). */
int errorCode(ErrorKind kind);

/**
 * A structured error destined for a response line.
 */
struct ServeError {
    ErrorKind kind = ErrorKind::Internal;
    std::string message;
};

/**
 * Render a request "id" value for echoing. Only scalar ids make
 * sense on the wire; strings, numbers, bools and null round-trip,
 * anything else echoes as null (as an absent id does).
 */
std::string renderId(const JsonValue &id);

/**
 * Build a complete error response line (no trailing newline).
 *
 * @param id_json The echoed id, already rendered (renderId()).
 * @param error   The error payload.
 */
std::string errorResponse(const std::string &id_json,
                          const ServeError &error);

/**
 * Build a success response line (no trailing newline).
 *
 * @param id_json     The echoed id, already rendered (renderId()).
 * @param result_json The "result" payload, a rendered JSON value.
 */
std::string okResponse(const std::string &id_json,
                       const std::string &result_json);

} // namespace serve
} // namespace gables

#endif // GABLES_SERVE_PROTOCOL_H
