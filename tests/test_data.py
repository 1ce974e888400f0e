"""CSV ingestion and split behavior."""

import pytest

from ecdkit.data import load_dataset, split_dataset
from ecdkit.errors import DataError


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:

    def test_direct_load(self, tmp_path):
        ds = load_dataset(write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n"))
        assert ds.header == ["a", "b"]
        assert len(ds) == 3
        assert ds.columns == {"a": ["1", "3", "5"], "b": ["2", "4", "6"]}

    def test_ragged_row_names_row_number(self, tmp_path):
        with pytest.raises(DataError, match="row 3"):
            load_dataset(write_csv(tmp_path, "a,b\n1,2\n1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_dataset(write_csv(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="no rows"):
            load_dataset(write_csv(tmp_path, "a,b\n"))

    def test_quoted_cell_with_comma_parses_as_one_cell(self, tmp_path):
        # oracle: RFC-4180 quoting keeps the comma inside one field
        ds = load_dataset(write_csv(tmp_path, 'text,label\n"hello, world",pos\n'))
        assert ds.column("text") == ["hello, world"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.csv")

    def test_duplicate_columns_rejected(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(write_csv(tmp_path, "a,a\n1,2\n"))


class TestSplitDataset:

    def make(self, tmp_path, n=100):
        body = "".join(f"{i},{i % 2}\n" for i in range(n))
        return load_dataset(write_csv(tmp_path, "x,y\n" + body))

    def test_fraction_sizes_match_counting_oracle(self, tmp_path):
        ds = self.make(tmp_path, 100)
        splits = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=3)
        n_train = int(100 * 0.7)
        n_val = int(100 * 0.1)
        assert len(splits["train"]) == n_train == 70
        assert len(splits["validation"]) == n_val == 10
        assert len(splits["test"]) == 100 - n_train - n_val == 20

    def test_partition_is_exact(self, tmp_path):
        ds = self.make(tmp_path, 37)
        splits = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=9)
        seen = [x for s in splits.values() for x in s.column("x")]
        assert sorted(seen, key=int) == ds.column("x")

    def test_same_seed_gives_identical_partitions(self, tmp_path):
        ds = self.make(tmp_path)
        a = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=5)
        b = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=5)
        for name in ("train", "validation", "test"):
            assert a[name].column("x") == b[name].column("x")

    def test_different_seed_changes_partition(self, tmp_path):
        ds = self.make(tmp_path)
        a = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=5)
        b = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=6)
        assert a["train"].column("x") != b["train"].column("x")

    def test_split_column_routes_exactly_as_labeled(self, tmp_path):
        text = ("x,fold\n" + "1,train\n2,validation\n3,test\n4,train\n")
        ds = load_dataset(write_csv(tmp_path, text))
        splits = split_dataset(ds, None, "fold", seed=0)
        assert splits["train"].column("x") == ["1", "4"]
        assert splits["validation"].column("x") == ["2"]
        assert splits["test"].column("x") == ["3"]

    def test_unknown_split_label_is_data_error(self, tmp_path):
        ds = load_dataset(write_csv(tmp_path, "x,fold\n1,dev\n"))
        with pytest.raises(DataError, match="dev"):
            split_dataset(ds, None, "fold", seed=0)

    def test_assignment_independent_of_cell_contents(self, tmp_path):
        ds = self.make(tmp_path, 50)
        before = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=4)
        ds.columns["y"][10] = "999"  # perturb one cell
        after = split_dataset(ds, [0.7, 0.1, 0.2], None, seed=4)
        for name in ("train", "validation", "test"):
            assert before[name].column("x") == after[name].column("x")
