"""Shared plumbing for the experiment drivers.

Every table / figure experiment follows the same skeleton: prepare one or
more scenarios, build and train one or more models, evaluate on the test
split, and format the outcome as rows.  The helpers here centralise that
skeleton so the individual drivers stay focused on what the paper varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.data.amazon import AMAZON_DATASETS, amazon_config
from repro.data.industrial import INDUSTRIAL_DATASETS, industrial_config
from repro.data.synthetic import SyntheticConfig
from repro.eval.evaluator import EvaluationReport, Evaluator
from repro.models import GARCIA, KGAT, SGL, LightGCN, SimGCL, WideAndDeep
from repro.models.base import RankingModel
from repro.models.garcia.config import GarciaConfig
from repro.models.garcia.model import build_garcia
from repro.pipeline import Scenario, prepare_scenario
from repro.training.finetuner import train_garcia
from repro.training.history import TrainingHistory
from repro.training.trainer import Trainer, TrainerConfig

#: Model names in the order Table III reports them.
BASELINE_NAMES: Tuple[str, ...] = ("Wide&Deep", "LightGCN", "KGAT", "SGL", "SimGCL")
ALL_MODEL_NAMES: Tuple[str, ...] = BASELINE_NAMES + ("GARCIA",)


@dataclass
class ExperimentSettings:
    """Scale and optimisation knobs shared by every experiment driver.

    The defaults target the ``tiny`` scale so each experiment finishes in
    seconds to minutes; pass ``scale="small"`` (and more epochs) for results
    closer to the published shapes.
    """

    scale: str = "tiny"
    embedding_dim: int = 16
    num_gnn_layers: int = 2
    pretrain_epochs: int = 2
    finetune_epochs: int = 4
    learning_rate: float = 5e-3
    batch_size: int = 256
    seed: int = 0
    eval_every: int = 0
    garcia: GarciaConfig = field(default_factory=GarciaConfig)

    def garcia_config(self, **overrides) -> GarciaConfig:
        """GARCIA config aligned with the experiment scale plus overrides."""
        return replace(
            self.garcia,
            embedding_dim=self.embedding_dim,
            num_gnn_layers=self.num_gnn_layers,
            seed=self.seed,
            **overrides,
        )

    def trainer_config(self, num_epochs: Optional[int] = None, eval_every: Optional[int] = None) -> TrainerConfig:
        return TrainerConfig(
            num_epochs=self.finetune_epochs if num_epochs is None else num_epochs,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            seed=self.seed,
            eval_every=self.eval_every if eval_every is None else eval_every,
        )


@dataclass
class ExperimentResult:
    """Uniform result container: rows for tables, named series for figures."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""


# --------------------------------------------------------------------- #
# Scenario construction
# --------------------------------------------------------------------- #
def all_dataset_names(include_amazon: bool = True) -> List[str]:
    """The six evaluation datasets of the paper (three industrial, three public)."""
    names = list(INDUSTRIAL_DATASETS)
    if include_amazon:
        names.extend(AMAZON_DATASETS)
    return names


def dataset_config(name: str, scale: str) -> SyntheticConfig:
    """Resolve a dataset name to its synthetic configuration."""
    if name in INDUSTRIAL_DATASETS:
        return industrial_config(name, scale=scale)
    if name in AMAZON_DATASETS:
        return amazon_config(name, scale=scale)
    raise ValueError(f"unknown dataset {name!r}")


def scenario_for(name: str, settings: ExperimentSettings) -> Scenario:
    """Prepare the full scenario (data, splits, graph, forest) for one dataset."""
    return prepare_scenario(dataset_config(name, settings.scale))


# --------------------------------------------------------------------- #
# Model construction and training
# --------------------------------------------------------------------- #
def build_model(name: str, scenario: Scenario, settings: ExperimentSettings,
                garcia_config: Optional[GarciaConfig] = None) -> RankingModel:
    """Instantiate a model by its Table III name."""
    dim = settings.embedding_dim
    seed = settings.seed
    if name == "Wide&Deep":
        return WideAndDeep(scenario.graph, embedding_dim=dim, seed=seed)
    if name == "LightGCN":
        return LightGCN(scenario.graph, embedding_dim=dim, num_layers=settings.num_gnn_layers, seed=seed)
    if name == "KGAT":
        return KGAT(scenario.graph, embedding_dim=dim, num_layers=settings.num_gnn_layers, seed=seed)
    if name == "SGL":
        return SGL(scenario.graph, embedding_dim=dim, num_layers=settings.num_gnn_layers, seed=seed)
    if name == "SimGCL":
        return SimGCL(scenario.graph, embedding_dim=dim, num_layers=settings.num_gnn_layers, seed=seed)
    if name == "GARCIA":
        config = garcia_config if garcia_config is not None else settings.garcia_config()
        return build_garcia(scenario.dataset, scenario.graph, scenario.forest, scenario.head_tail, config)
    raise ValueError(f"unknown model {name!r}; expected one of {ALL_MODEL_NAMES}")


def train_model(
    model: RankingModel,
    scenario: Scenario,
    settings: ExperimentSettings,
    track_validation: bool = False,
) -> TrainingHistory:
    """Train a model with the settings' schedule (pre-train + fine-tune for GARCIA)."""
    validation = scenario.splits.validation if track_validation else None
    head_tail = scenario.head_tail if track_validation else None
    eval_every = 1 if track_validation else 0
    if isinstance(model, GARCIA):
        result = train_garcia(
            model,
            scenario.splits.train,
            validation_interactions=validation,
            head_tail=head_tail,
            pretrain_config=settings.trainer_config(num_epochs=settings.pretrain_epochs, eval_every=0),
            finetune_config=settings.trainer_config(eval_every=eval_every),
        )
        return result.finetune_history
    trainer = Trainer(model, config=settings.trainer_config(eval_every=eval_every))
    return trainer.fit(scenario.splits.train, validation, head_tail)


def train_and_evaluate(
    name: str,
    scenario: Scenario,
    settings: ExperimentSettings,
    garcia_config: Optional[GarciaConfig] = None,
) -> Tuple[RankingModel, EvaluationReport]:
    """Build, train and evaluate one model on one scenario's test split."""
    model = build_model(name, scenario, settings, garcia_config=garcia_config)
    train_model(model, scenario, settings)
    evaluator = Evaluator()
    report = evaluator.evaluate(
        model, scenario.splits.test, scenario.head_tail,
        dataset_name=scenario.name, model_name=model.name,
    )
    return model, report
