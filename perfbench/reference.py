"""Reference data the benchmark checks the program against.

Everything here is pinned in the benchmark's own files so that a change to
the program cannot move the yardstick: the golden phase values, the budget
table of the verification battery, and the digests of the exact polynomial
output.  None of it is imported from the package or from its tests.
"""

from __future__ import annotations

# (ell, mu, omega, phi0) of the two golden parameter points and phi(T) there,
# frozen by dual-integrator agreement (DOP853 at 1e-12 vs 1e-14 and Radau).
GOLDEN_POINTS = {
    "G1": ((2.0, 0.3, 1.0, 0.5), 11.236686855190676),
    "G2": ((1.0, 0.2, 1.3, 1.0), 2.8340603087795717),
}
PHI_T_TOL = 1e-10

# The budget table of the verification battery as it stands at the commit
# that introduced this benchmark.  Margins are measured against these values;
# the run is marked incorrect when the program's table differs, so loosening a
# budget cannot raise a margin.
PINNED_BUDGETS: dict[str, float] = {
    "ode_residual": 1e-11,
    "time_translation_residual": 1e-11,
    "unimodularity": 1e-10,
    "branch_squares": 1e-12,
    "psi_ode_residual": 1e-8,
    "riccati_circle": 1e-8,
    "route_equivalence": 1e-9,
    "monodromy_sup": 1e-8,
    "monodromy_boundary": 1e-8,
    "monodromy_unimodularity": 1e-9,
    "monodromy_riccati": 1e-7,
    "ray_residual": 1e-7,
    "pair_ode": 1e-8,
    "dche": 1e-7,
    "boundary_E": 1e-10,
    "phi_alpha_identity": 1e-9,
    "phi_alpha_unimodular": 1e-8,
    "phi_alpha_riccati": 1e-7,
    "lb_maps_solutions": 1e-6,
    "matrix_action": 1e-6,
    "b_squared_operator": 1e-6,
    "det_relation": 1e-5,
    "theorem2_phi_riccati": 1e-7,
    "theorem2_unimodularity": 1e-8,
    "theorem2_psi_equation": 1e-6,
    "theorem2_psi_at_1": 1e-8,
    "theorem2_psi_quadrature": 1e-8,
    "theorem2_theta_system": 1e-6,
    "theorem2_theta_ic": 1e-8,
    "theorem2_psi_reciprocal": 1e-8,
    "theorem2_b_squared": 1e-6,
}

# Report field -> budget key, per section of the `verify` report.  Fields
# written as "prefix*" match every field that starts with the prefix.
REPORT_BUDGET_KEYS: dict[str, dict[str, str]] = {
    "ode": {
        "ode_residual": "ode_residual",
        "time_translation_residual": "time_translation_residual",
        "unimodularity": "unimodularity",
        "branch_squares": "branch_squares",
        "psi_ode_residual": "psi_ode_residual",
        "riccati_circle": "riccati_circle",
        "route_equivalence": "route_equivalence",
    },
    "monodromy": {
        "sup_residual_circle": "monodromy_sup",
        "boundary_residual": "monodromy_boundary",
        "unimodularity_residual": "monodromy_unimodularity",
        "riccati_residual": "monodromy_riccati",
        "ray_residuals": "ray_residual",
    },
    "heun": {
        "pair_ode": "pair_ode",
        "dche": "dche",
        "dche_combo": "dche",
        "boundary_E": "boundary_E",
        "phi_alpha_identity": "phi_alpha_identity",
        "phi_alpha_unimodular*": "phi_alpha_unimodular",
        "phi_alpha_riccati*": "phi_alpha_riccati",
        "lb_maps_solutions_*": "lb_maps_solutions",
        "matrix_action": "matrix_action",
        "det_relation": "det_relation",
        "b_squared_operator": "b_squared_operator",
    },
    "theorem2": {
        "sup_phi_residual": "theorem2_phi_riccati",
        "unimodularity_residual": "theorem2_unimodularity",
        "phase_equation_residual": "theorem2_psi_equation",
        "psi_equation_residual": "theorem2_psi_equation",
        "psi_at_1_residual": "theorem2_psi_at_1",
        "psi_quadrature_residual": "theorem2_psi_quadrature",
        "theta_system_residual": "theorem2_theta_system",
        "theta_ic_residual": "theorem2_theta_ic",
        "psi_reciprocal_residual": "theorem2_psi_reciprocal",
        "b_squared_residual": "theorem2_b_squared",
    },
}

# sha256 of `poly --ell L --check` standard output, recorded at the commit
# that introduced this benchmark.  The output is exact integer arithmetic, so
# any change to it is a wrong answer, not a rounding difference.
POLY_DIGESTS: dict[int, str] = {
    16: "d4687a2729f6b4d3103522a12f629c8d5f2a0c9b844929eb5a271cb9e1ad7047",
    17: "6b42d8efbafa7a5f898d7df2064aa04832b1c31d90c459f6ea76ef7707882f2c",
    18: "7ac1190764d7ab65016bfda208837069260b454ead6c7ba7d2b8df95307ac3a2",
    19: "5c27b3497699c868759e96fa654769e34db36ce55502cdd38a023f3cee50cf0e",
    20: "2529b1cfd2e6554293393df23f4c8d415380bb933aa155595174818825fe987b",
    21: "b98602388cf1a7c09da34aaf471e54c18a1951d8a0324d750f0c0169ed45006d",
    22: "f1c936ced8e192ea036f250608e6a12e58ffd885cfbb0217a9bd118d5b34cf08",
    23: "41c8d2e2240dd9ec41e49f1a63b701741aaa194f829cb0317aeccc278a4d3c07",
    24: "b14474e41759faec4f3dcc378b8e1741474325a59b0369f629bb519ec59bfc70",
    25: "73981d74045b177c3fa0486f409147f86eda0584f093f6358896b533bebeaa98",
    26: "231cadf83c46a2522d9d23ff8e84305f9308349a00d7095eb0375b6015ba497d",
    27: "dcb543f4643f34e43044159a103baa677d90c65e5d027e3d2037ae870a4c3172",
    28: "4c20b5abf845138db97623ab991262464c76ad5174caaa1f299b7f7369ec828e",
}
POLY_STDERR = "exact checks passed\n"
