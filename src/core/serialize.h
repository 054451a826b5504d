/**
 * @file
 * JSON serialization of model inputs and results — the machine-
 * readable interface the paper's interactive visualizer and Android
 * app expose; our CLI emits the same structures.
 */

#ifndef GABLES_CORE_SERIALIZE_H
#define GABLES_CORE_SERIALIZE_H

#include <ostream>

#include "core/gables.h"
#include "core/soc_spec.h"
#include "core/usecase.h"
#include "util/json_writer.h"

namespace gables {

/** Write a SocSpec as a JSON object at @p json's current position. */
void writeJson(JsonWriter &json, const SocSpec &soc);

/** Write a Usecase as a JSON object at @p json's current position. */
void writeJson(JsonWriter &json, const Usecase &usecase);

/**
 * Write a full evaluation (inputs echoed plus the GablesResult) as a
 * JSON object to @p out.
 */
void writeJson(std::ostream &out, const SocSpec &soc,
               const Usecase &usecase, const GablesResult &result);

} // namespace gables

#endif // GABLES_CORE_SERIALIZE_H
