"""JSON Schemas for the CLI's --format json outputs.

These are the published shapes scripts may rely on; the test suite validates
every JSON emission against them.
"""

_RAT = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}

_ESTIMATE = {
    "type": "object",
    "required": ["value", "upper_bound", "lower_slack", "rigorous_lower", "depth"],
    "properties": {
        "value": {"type": "number"},
        "upper_bound": {"type": "number"},
        "lower_slack": {"type": "number"},
        "rigorous_lower": {"type": "number"},
        "depth": {"type": "integer"},
    },
}

HEIGHT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "points"],
    "properties": {
        "command": {"const": "height"},
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["x", "y", "h_nv"],
                "properties": {
                    "x": _RAT,
                    "y": _RAT,
                    "max_abs": {"type": "string"},
                    "h_nv": {"type": "number"},
                },
            },
        },
    },
}

DYNDEG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "degree", "inverse_degree", "dynamical_degree", "regular", "degree_sequence"],
    "properties": {
        "command": {"const": "dyndeg"},
        "degree": {"type": "integer"},
        "inverse_degree": {"type": "integer"},
        "dynamical_degree": {"type": "integer"},
        "regular": {"type": "boolean"},
        "degree_sequence": {"type": "array", "items": {"type": "integer"}},
    },
}

CANHEIGHT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "delta", "delta_minus", "depth", "error_budget", "points"],
    "properties": {
        "command": {"const": "canheight"},
        "delta": {"type": "integer"},
        "delta_minus": {"type": "integer"},
        "depth": {"type": "integer"},
        "c2_fwd": {"type": "number"},
        "c2_inv": {"type": "number"},
        "error_budget": {"type": "number"},
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["x", "y", "hplus", "hminus", "hcanonical", "residual"],
                "properties": {
                    "x": _RAT,
                    "y": _RAT,
                    "hplus": _ESTIMATE,
                    "hminus": _ESTIMATE,
                    "hcanonical": _ESTIMATE,
                    "residual": {"type": "number"},
                },
            },
        },
    },
}

ORBIT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "orbit_height", "scan", "counting"],
    "properties": {
        "command": {"const": "orbit"},
        "orbit_height": {"type": "number"},
        "hplus0": {"type": "number"},
        "hminus0": {"type": "number"},
        "scan": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["l", "x", "y", "h_nv", "hhat"],
                "properties": {
                    "l": {"type": "integer"},
                    "x": _RAT,
                    "y": _RAT,
                    "h_nv": {"type": "number"},
                    "hhat": {"type": "number"},
                },
            },
        },
        "counting": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["T", "count", "predicted", "lower", "upper", "pass"],
                "properties": {
                    "T": {"type": "number"},
                    "count": {"type": "integer"},
                    "predicted": {"type": "number"},
                    "lower": {"type": "number"},
                    "upper": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
    },
}

PERIODIC_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "verdict"],
    "properties": {
        "command": {"const": "periodic"},
        "verdict": {"enum": ["periodic", "not_periodic", "undecided"]},
        "period": {"type": ["integer", "null"]},
        "detail": {"type": "string"},
    },
}

PICARD_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "d", "classes", "checks"],
    "properties": {
        "command": {"const": "picard"},
        "d": {"type": "integer"},
        "classes": {
            "type": "object",
            "required": ["pi", "phi", "psi", "D"],
            "additionalProperties": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["label", "coefficient"],
                    "properties": {"label": {"type": "string"}, "coefficient": _RAT},
                },
            },
        },
        "checks": {
            "type": "object",
            "required": ["solver_matches_closed_form", "excess_effective", "products_ok"],
            "additionalProperties": {"type": "boolean"},
        },
    },
}

SCHEMAS = {
    "height": HEIGHT_SCHEMA,
    "dyndeg": DYNDEG_SCHEMA,
    "canheight": CANHEIGHT_SCHEMA,
    "orbit": ORBIT_SCHEMA,
    "periodic": PERIODIC_SCHEMA,
    "picard": PICARD_SCHEMA,
}
