"""Unit tests for the XPath-lite evaluator."""

import pytest

from repro.xmlutils import (
    Element,
    QName,
    XPath,
    XPathError,
    coerce_text,
    parse_xml,
    xpath_evaluate,
    xpath_value,
)


@pytest.fixture
def order():
    return parse_xml(
        """
        <PurchaseOrder total="1500" currency="AUD">
          <CustomerID>cust-42</CustomerID>
          <Items>
            <Item sku="TV" qty="1"><Price>1299</Price></Item>
            <Item sku="DVD" qty="2"><Price>99</Price></Item>
          </Items>
          <Notes>priority</Notes>
        </PurchaseOrder>
        """
    )


class TestLocationPaths:
    def test_child_step(self, order):
        assert xpath_value(order, "CustomerID") == "cust-42"

    def test_nested_path(self, order):
        assert [e.attributes["sku"] for e in xpath_evaluate(order, "Items/Item")] == [
            "TV",
            "DVD",
        ]

    def test_descendant_step(self, order):
        assert [e.text for e in xpath_evaluate(order, "//Price")] == ["1299", "99"]

    def test_wildcard(self, order):
        assert len(xpath_evaluate(order, "Items/*")) == 2

    def test_absolute_path_from_nested_context(self, order):
        item = xpath_evaluate(order, "Items/Item")[0]
        assert xpath_value(item, "/PurchaseOrder/CustomerID") == "cust-42"

    def test_parent_step(self, order):
        item = xpath_evaluate(order, "Items/Item")[0]
        assert xpath_evaluate(item, "..")[0].name.local == "Items"

    def test_self_step(self, order):
        assert xpath_evaluate(order, ".")[0] is order

    def test_attribute_selection(self, order):
        assert xpath_evaluate(order, "@total") == ["1500"]

    def test_nested_attribute(self, order):
        assert xpath_evaluate(order, "Items/Item/@sku") == ["TV", "DVD"]

    def test_text_function_step(self, order):
        assert xpath_evaluate(order, "Notes/text()") == ["priority"]

    def test_no_match_returns_empty(self, order):
        assert xpath_evaluate(order, "Missing/Path") == []
        assert xpath_value(order, "Missing") is None

    def test_clark_notation_name_test(self):
        root = Element(QName("urn:ns", "r"), children=[Element(QName("urn:ns", "c"), text="v")])
        assert xpath_value(root, "{urn:ns}c") == "v"

    def test_prefixed_name_matches_local(self, order):
        # Prefix is ignored; local-name matching (documented subset).
        assert xpath_value(order, "po:CustomerID") == "cust-42"


class TestPredicates:
    def test_positional(self, order):
        assert xpath_evaluate(order, "Items/Item[2]")[0].attributes["sku"] == "DVD"

    def test_attribute_equality(self, order):
        assert xpath_evaluate(order, "Items/Item[@sku='DVD']")[0].attributes["qty"] == "2"

    def test_child_value_comparison(self, order):
        assert [
            e.attributes["sku"] for e in xpath_evaluate(order, "Items/Item[Price > 500]")
        ] == ["TV"]

    def test_existence_predicate(self, order):
        assert len(xpath_evaluate(order, "Items/Item[Price]")) == 2
        assert xpath_evaluate(order, "Items/Item[Discount]") == []

    def test_attribute_existence(self, order):
        assert len(xpath_evaluate(order, "Items/Item[@sku]")) == 2

    def test_numeric_coercion_both_ways(self, order):
        assert xpath_evaluate(order, "Items/Item[@qty >= 2]")
        assert not xpath_evaluate(order, "Items/Item[@qty > 5]")

    def test_inequality(self, order):
        assert [
            e.attributes["sku"] for e in xpath_evaluate(order, "Items/Item[@sku != 'TV']")
        ] == ["DVD"]

    def test_comparison_against_missing_is_false(self, order):
        assert xpath_evaluate(order, "Items/Item[Missing = 'x']") == []

    def test_chained_predicates(self, order):
        assert xpath_evaluate(order, "Items/Item[@qty='2'][Price < 500]")

    def test_text_predicate(self, order):
        assert xpath_evaluate(order, "Notes[text() = 'priority']")


class TestFunctions:
    def test_contains(self, order):
        assert xpath_evaluate(order, "CustomerID[contains(., 'cust')]")
        assert xpath_evaluate(order, "Items/Item[contains(@sku, 'V')]")

    def test_starts_with(self, order):
        assert len(xpath_evaluate(order, "Items/Item[starts-with(@sku, 'D')]")) == 1

    def test_count(self, order):
        assert xpath_evaluate(order, "Items[count(Item) = 2]")

    def test_number_conversion(self, order):
        assert xpath_evaluate(order, "Items/Item[number(Price) < 100]")

    def test_unknown_function_rejected(self):
        with pytest.raises(XPathError):
            XPath("Items/Item[normalize-space(@sku)]")


class TestMatchesAndErrors:
    def test_matches_true_false(self, order):
        assert XPath("CustomerID").matches(order)
        assert not XPath("Ghost").matches(order)

    def test_value_of_attribute(self, order):
        assert XPath("@currency").value(order) == "AUD"

    def test_garbage_expression_rejected(self):
        with pytest.raises(XPathError):
            XPath("///")

    def test_unbalanced_bracket_rejected(self):
        with pytest.raises(XPathError):
            XPath("Items/Item[@sku")

    def test_empty_predicate_rejected(self):
        with pytest.raises(XPathError):
            XPath("Items/Item[]")

    def test_results_deduplicated_in_document_order(self, order):
        prices = xpath_evaluate(order, "//Item/Price")
        assert [p.text for p in prices] == ["1299", "99"]


@pytest.mark.parametrize(
    "text,value",
    [
        ("7", 7),
        ("7.5", 7.5),
        ("true", True),
        ("false", False),
        ("True", "True"),
        ("", ""),
        (None, None),
        ("1e3", 1000.0),
        (" 7 ", 7),
    ],
)
def test_coerce_text(text, value):
    coerced = coerce_text(text)
    assert coerced == value and type(coerced) is type(value)
