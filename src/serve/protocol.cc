#include "serve/protocol.h"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "obs/json_util.h"
#include "serve/json.h"

namespace rll::serve {

namespace {

/// Re-serializes a parsed "id" member. Only numbers and strings are
/// accepted (booleans/objects as correlation ids are a client bug worth
/// rejecting loudly).
Result<std::string> SerializeId(const JsonValue& id) {
  if (id.is_number()) return obs::JsonNumber(id.number);
  if (id.is_string()) return "\"" + obs::JsonEscape(id.string) + "\"";
  return Status::InvalidArgument("\"id\" must be a number or a string");
}

/// The protocol keys; bit i of Verb::keys stands for kKeys[i]. Members
/// outside these six (and "id"/"type") are ignored.
constexpr std::string_view kKeys[] = {"features", "k",      "action",
                                      "hz",       "format", "path"};
enum KeyBit : unsigned {
  kFeatures = 1, kK = 2, kAction = 4, kHz = 8, kFormat = 16, kPath = 32
};

/// Required "features": a non-empty array of numbers.
Status ParseFeatures(const JsonValue& root, Request* request) {
  const JsonValue* features = root.Find("features");
  if (features == nullptr || !features->is_array()) {
    return Status::InvalidArgument("missing or non-array \"features\"");
  }
  if (features->array.empty()) {
    return Status::InvalidArgument("\"features\" must be non-empty");
  }
  request->features.reserve(features->array.size());
  for (const JsonValue& v : features->array) {
    if (!v.is_number()) {
      return Status::InvalidArgument("\"features\" entries must be numbers");
    }
    request->features.push_back(v.number);
  }
  return Status::OK();
}

/// Features plus an optional positive integer "k".
Status ParseNeighbors(const JsonValue& root, Request* request) {
  RLL_RETURN_IF_ERROR(ParseFeatures(root, request));
  if (const JsonValue* k = root.Find("k"); k != nullptr) {
    if (!k->is_number() || k->number < 1.0 ||
        k->number != static_cast<double>(static_cast<size_t>(k->number))) {
      return Status::InvalidArgument("\"k\" must be a positive integer");
    }
    request->k = static_cast<size_t>(k->number);
  }
  return Status::OK();
}

/// Required "action" (start/stop/fetch); "hz" only with start, "format"
/// only with fetch.
Status ParseProfilez(const JsonValue& root, Request* request) {
  const JsonValue* action = root.Find("action");
  if (action == nullptr || !action->is_string()) {
    return Status::InvalidArgument("profilez requires a string \"action\"");
  }
  if (action->string == "start") {
    request->profile_action = ProfileAction::kStart;
  } else if (action->string == "stop") {
    request->profile_action = ProfileAction::kStop;
  } else if (action->string == "fetch") {
    request->profile_action = ProfileAction::kFetch;
  } else {
    return Status::InvalidArgument("unknown profilez \"action\": " +
                                   action->string);
  }
  if (const JsonValue* hz = root.Find("hz"); hz != nullptr) {
    if (request->profile_action != ProfileAction::kStart) {
      return Status::InvalidArgument(
          "\"hz\" is only valid with action \"start\"");
    }
    if (!hz->is_number() || hz->number < 1.0 ||
        hz->number != static_cast<double>(static_cast<int>(hz->number))) {
      return Status::InvalidArgument("\"hz\" must be a positive integer");
    }
    request->profile_hz = static_cast<int>(hz->number);
  }
  if (const JsonValue* format = root.Find("format"); format != nullptr) {
    if (request->profile_action != ProfileAction::kFetch) {
      return Status::InvalidArgument(
          "\"format\" is only valid with action \"fetch\"");
    }
    if (!format->is_string()) {
      return Status::InvalidArgument("\"format\" must be a string");
    }
    if (format->string == "folded") {
      request->profile_format = ProfileFormat::kFolded;
    } else if (format->string == "json") {
      request->profile_format = ProfileFormat::kJson;
    } else {
      return Status::InvalidArgument("unknown profilez \"format\": " +
                                     format->string);
    }
  }
  return Status::OK();
}

/// Required "action" (reload/status); "path" only with reload.
Status ParseReloadz(const JsonValue& root, Request* request) {
  const JsonValue* action = root.Find("action");
  if (action == nullptr || !action->is_string()) {
    return Status::InvalidArgument("reloadz requires a string \"action\"");
  }
  if (action->string == "reload") {
    request->reload_action = ReloadAction::kReload;
  } else if (action->string == "status") {
    request->reload_action = ReloadAction::kStatus;
  } else {
    return Status::InvalidArgument("unknown reloadz \"action\": " +
                                   action->string);
  }
  if (const JsonValue* path = root.Find("path"); path != nullptr) {
    if (request->reload_action != ReloadAction::kReload) {
      return Status::InvalidArgument(
          "\"path\" is only valid with action \"reload\"");
    }
    if (!path->is_string() || path->string.empty()) {
      return Status::InvalidArgument("\"path\" must be a non-empty string");
    }
    request->reload_path = path->string;
  }
  return Status::OK();
}

/// One protocol verb: its wire name, whether it is an admin command
/// (answered by the server core, never batched), the protocol keys it
/// accepts, and the parser for those keys (null: it takes none).
struct Verb {
  std::string_view name;
  RequestType type;
  bool admin;
  unsigned keys;
  Status (*parse)(const JsonValue& root, Request* request);
};

/// The verb set, in RequestType order. A new verb is one row here plus
/// one payload builder in ServerCore.
constexpr Verb kVerbs[] = {
    {"embed", RequestType::kEmbed, false, kFeatures, ParseFeatures},
    {"predict", RequestType::kPredict, false, kFeatures, ParseFeatures},
    {"neighbors", RequestType::kNeighbors, false, kFeatures | kK,
     ParseNeighbors},
    {"healthz", RequestType::kHealthz, true, 0, nullptr},
    {"statusz", RequestType::kStatusz, true, 0, nullptr},
    {"metricsz", RequestType::kMetricsz, true, 0, nullptr},
    {"profilez", RequestType::kProfilez, true, kAction | kHz | kFormat,
     ParseProfilez},
    {"reloadz", RequestType::kReloadz, true, kAction | kPath, ParseReloadz},
};

constexpr bool VerbsInRequestTypeOrder() {
  for (size_t i = 0; i < std::size(kVerbs); ++i) {
    if (static_cast<size_t>(kVerbs[i].type) != i) return false;
  }
  return true;
}
static_assert(VerbsInRequestTypeOrder(), "kVerbs is indexed by RequestType");

const Verb& VerbOf(RequestType type) {
  const size_t index = static_cast<size_t>(type);
  RLL_CHECK_LT(index, std::size(kVerbs));
  return kVerbs[index];
}

}  // namespace

const char* RequestTypeName(RequestType type) {
  // Every name is a string literal, so data() is NUL-terminated.
  return VerbOf(type).name.data();
}

bool IsAdminRequest(RequestType type) { return VerbOf(type).admin; }

const char* ServeErrorName(ServeError error) {
  switch (error) {
    case ServeError::kBadRequest:
      return "bad_request";
    case ServeError::kUnsupported:
      return "unsupported";
    case ServeError::kOverloaded:
      return "overloaded";
    case ServeError::kShutdown:
      return "shutdown";
    case ServeError::kInternal:
      return "internal";
  }
  RLL_CHECK_MSG(false, "unknown serve error");
  return "";
}

Result<Request> ParseRequest(const std::string& line, std::string* id_json) {
  id_json->clear();
  RLL_ASSIGN_OR_RETURN(JsonValue root, ParseJson(line));
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request request;
  if (const JsonValue* id = root.Find("id"); id != nullptr) {
    RLL_ASSIGN_OR_RETURN(request.id_json, SerializeId(*id));
    *id_json = request.id_json;
  }

  const JsonValue* type = root.Find("type");
  if (type == nullptr || !type->is_string()) {
    return Status::InvalidArgument("missing or non-string \"type\"");
  }
  const Verb* verb =
      std::find_if(std::begin(kVerbs), std::end(kVerbs),
                   [&](const Verb& v) { return v.name == type->string; });
  if (verb == std::end(kVerbs)) {
    return Status::InvalidArgument("unknown \"type\": " + type->string);
  }
  request.type = verb->type;

  // Strict parse: a protocol key the verb does not take is an error, not
  // something to ignore.
  for (size_t i = 0; i < std::size(kKeys); ++i) {
    if ((verb->keys & (1u << i)) == 0 && root.Find(kKeys[i]) != nullptr) {
      return Status::InvalidArgument("\"" + std::string(kKeys[i]) +
                                     "\" is not valid for \"" +
                                     type->string + "\"");
    }
  }
  if (verb->parse != nullptr) {
    RLL_RETURN_IF_ERROR(verb->parse(root, &request));
  }
  return request;
}

std::string SerializeResponse(const Response& response) {
  std::string out = "{";
  if (!response.id_json.empty()) {
    out += "\"id\":" + response.id_json + ",";
  }
  if (response.has_type) {
    out += "\"type\":\"";
    out += RequestTypeName(response.type);
    out += "\",";
  }
  out += response.ok ? "\"ok\":true" : "\"ok\":false";
  if (response.trace_id != 0) {
    out += ",\"trace_id\":" + std::to_string(response.trace_id);
  }
  if (!response.ok) {
    out += ",\"error\":\"";
    out += ServeErrorName(response.error);
    out += "\",\"message\":\"" + obs::JsonEscape(response.message) + "\"";
    out += "}";
    return out;
  }
  if (IsAdminRequest(response.type)) {
    // payload_json is produced server-side (never from client input), so
    // it is spliced in verbatim as a complete JSON document.
    out += ",\"payload\":";
    out += response.payload_json.empty() ? "{}" : response.payload_json;
  } else if (response.type == RequestType::kPredict) {
    out += ",\"score\":" + obs::JsonNumber(response.score);
    out += ",\"label\":" + std::to_string(response.label);
  } else if (response.type == RequestType::kNeighbors) {
    out += ",\"neighbors\":[";
    for (size_t i = 0; i < response.neighbors.size(); ++i) {
      const NeighborHit& hit = response.neighbors[i];
      if (i > 0) out += ",";
      out += "{\"index\":" + std::to_string(hit.index);
      out += ",\"label\":" + std::to_string(hit.label);
      out += ",\"similarity\":" + obs::JsonNumber(hit.similarity) + "}";
    }
    out += "]";
  } else {
    out += ",\"embedding\":[";
    for (size_t i = 0; i < response.embedding.size(); ++i) {
      if (i > 0) out += ",";
      out += obs::JsonNumber(response.embedding[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

Response MakeErrorResponse(const std::string& id_json, ServeError error,
                           std::string message) {
  Response response;
  response.id_json = id_json;
  response.ok = false;
  response.error = error;
  response.message = std::move(message);
  return response;
}

}  // namespace rll::serve
