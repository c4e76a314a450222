"""Tensor-network binomial pricing of Asian and basket options.

Prices path-dependent options on binomial lattices by treating the value
function over paths or outcome grids as a low-rank matrix product state:
cross interpolation for arithmetic Asian options, a variational binary
filter for guaranteed lower bounds, and decoupled per-asset trees with
MPS backward induction for European and American basket puts. Exhaustive
brute-force pricers and a Monte Carlo baseline back every method.
"""

from .asian import (
    BRUTEFORCE_MAX_STEPS,
    AsianSpec,
    asian_integrand,
    price_asian_bruteforce,
    price_asian_montecarlo,
    price_asian_ttcross,
)
from .basket import (
    DENSE_ELEMENT_CAP,
    BasketSpec,
    DecoupledModel,
    basket_payoff,
    decouple,
    price_american_basket,
    price_basket_bruteforce,
    price_european_basket,
    terminal_label_pmf,
    uniform_basket_spec,
)
from .binomial import (
    SchemeParams,
    SingleAssetSpec,
    crr_params,
    make_scheme_params,
    path_prices,
    path_probability,
    rb_params,
    tree_price,
)
from .mps import MPS
from .reports import PriceReport
from .ttcross import (
    CrossConfig,
    CrossResult,
    GridFunction,
    ttcross_approximate,
)
from .variational import (
    build_exact_payoff_mps,
    price_asian_variational,
)

__version__ = "0.1.0"

__all__ = [
    "MPS",
    "DENSE_ELEMENT_CAP",
    "PriceReport",
    "GridFunction",
    "CrossConfig",
    "CrossResult",
    "ttcross_approximate",
    "SchemeParams",
    "SingleAssetSpec",
    "crr_params",
    "rb_params",
    "make_scheme_params",
    "path_prices",
    "path_probability",
    "tree_price",
    "AsianSpec",
    "asian_integrand",
    "price_asian_bruteforce",
    "price_asian_montecarlo",
    "price_asian_ttcross",
    "BRUTEFORCE_MAX_STEPS",
    "build_exact_payoff_mps",
    "price_asian_variational",
    "BasketSpec",
    "DecoupledModel",
    "decouple",
    "uniform_basket_spec",
    "basket_payoff",
    "terminal_label_pmf",
    "price_european_basket",
    "price_american_basket",
    "price_basket_bruteforce",
    "__version__",
]
